package exec

import (
	"sync"

	"repro/internal/sched"
)

// PlanKey identifies the dispatch shape a plan was built for — the value a
// Grant reports before the kernel runs.
type PlanKey struct {
	// Workers is the worker count the partition splits across. It is
	// the whole key: no format partitions by the RHS count.
	Workers int
}

// Plan is the cached output of a format's inspector step for one worker
// count: the row/nonzero partition and any per-worker scratch (merge-path
// carries, CSR5 segment bases). Building a plan costs one partition
// computation; executing it costs nothing.
//
// Scratch buffers and the lane frame are shared by every call that uses the
// plan, so a call that writes them must hold the plan lock for its duration —
// in practice via TryLock, building a private throwaway scratch when
// another call already holds it, so concurrent invocations with distinct
// output vectors keep full throughput (the seed behavior) and only pay the
// allocation when actual contention exists: two calls of one width in
// flight on one instance at once.
type Plan struct {
	// Ranges is the cached partition: one entry per lane, its initial
	// range. The engine runs lane w for every entry; the formats driver has
	// a lane work its own in chunks and then claim chunks off the others',
	// so an entry says where a lane starts, not what it alone computes (a
	// carrier's ranges stay owned: its carries are positional).
	Ranges []sched.Range
	// Scratch holds format-specific per-worker buffers.
	Scratch any
	// Frame holds the dispatcher's reusable per-call lane frame — the
	// arguments its bound lane function reads and the lanes' claim cursors
	// — so a dispatch on a cached plan allocates nothing. Like Scratch it
	// belongs to the call holding the plan lock.
	Frame any

	mu sync.Mutex
}

// TryLock claims the plan's scratch without blocking; a false return means
// another call is mid-flight and the caller should use private scratch.
func (p *Plan) TryLock() bool { return p.mu.TryLock() }

// Unlock releases the scratch lock.
func (p *Plan) Unlock() { p.mu.Unlock() }

// PlanCache memoizes Plans by PlanKey inside a format instance. It is
// a single-pointer handle so formats can embed it by value; create it with
// NewPlanCache in the format constructor. Copies of the handle share the
// underlying store, which is what embedded-format copies made during
// construction want; a constructor deriving from an already-used format
// instance would need a fresh cache, since plans encode the partition
// policy of the format that built them.
type PlanCache struct {
	s *planStore
}

type planStore struct {
	mu    sync.RWMutex
	plans map[PlanKey]*Plan
}

// NewPlanCache returns an empty cache.
func NewPlanCache() PlanCache {
	return PlanCache{s: &planStore{plans: make(map[PlanKey]*Plan)}}
}

// Get returns the plan for the key, building and caching it on
// first use. The warm path is a read-locked map probe: no allocation, no
// partition work.
func (c PlanCache) Get(key PlanKey, build func(key PlanKey) *Plan) *Plan {
	c.s.mu.RLock()
	pl := c.s.plans[key]
	c.s.mu.RUnlock()
	if pl != nil {
		return pl
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if pl = c.s.plans[key]; pl == nil {
		pl = build(key)
		c.s.plans[key] = pl
	}
	return pl
}

// Len reports how many keys have cached plans.
func (c PlanCache) Len() int {
	c.s.mu.RLock()
	defer c.s.mu.RUnlock()
	return len(c.s.plans)
}
