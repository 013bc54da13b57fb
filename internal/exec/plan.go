package exec

import (
	"sync"

	"repro/internal/sched"
)

// Plan is the cached output of a format's inspector step for one worker
// count: the partition, and the dispatcher's lane frame. Building a plan
// costs one partition computation; executing it costs nothing.
//
// The lane frame is shared by every call that uses the plan, so a call
// that writes it must hold the plan lock for its duration — in practice
// via TryLock, building a private throwaway frame when another call
// already holds it, so concurrent invocations with distinct output vectors
// keep full throughput and only pay the allocation when actual contention
// exists: two calls of one width in flight on one instance at once.
type Plan struct {
	// Ranges is the cached partition: one entry per lane, its initial
	// range. The engine runs lane w for every entry; the formats driver has
	// a lane work its own in chunks and then claim chunks off the others',
	// so an entry says where a lane starts, not what it alone computes.
	Ranges []sched.Range
	// Frame holds the dispatcher's reusable per-call lane frame — the
	// arguments its bound lane function reads, the lanes' claim cursors and
	// the call's carry slots — so a dispatch on a cached plan allocates
	// nothing. It belongs to the call holding the plan lock.
	Frame any

	mu sync.Mutex
}

// TryLock claims the plan's frame without blocking; a false return means
// another call is mid-flight and the caller should use a private one.
func (p *Plan) TryLock() bool { return p.mu.TryLock() }

// Unlock releases the frame lock.
func (p *Plan) Unlock() { p.mu.Unlock() }

// PlanCache memoizes Plans inside a format instance, keyed by the worker
// count they split across (a Grant's Width; no format partitions by the
// RHS count). It is a single-pointer handle so formats can embed it by
// value; create it with NewPlanCache in the format constructor. Copies of
// the handle share the underlying store, which is what embedded-format
// copies made during construction want; a constructor deriving from an
// already-used format instance would need a fresh cache, since plans
// encode the partition policy of the format that built them.
type PlanCache struct {
	s *planStore
}

type planStore struct {
	mu    sync.RWMutex
	plans map[int]*Plan
}

// NewPlanCache returns an empty cache.
func NewPlanCache() PlanCache {
	return PlanCache{s: &planStore{plans: make(map[int]*Plan)}}
}

// Get returns the plan for workers lanes, building and caching it on
// first use. The warm path is a read-locked map probe: no allocation, no
// partition work.
func (c PlanCache) Get(workers int, build func(workers int) *Plan) *Plan {
	c.s.mu.RLock()
	pl := c.s.plans[workers]
	c.s.mu.RUnlock()
	if pl != nil {
		return pl
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if pl = c.s.plans[workers]; pl == nil {
		pl = build(workers)
		c.s.plans[workers] = pl
	}
	return pl
}

// Len reports how many worker counts have cached plans.
func (c PlanCache) Len() int {
	c.s.mu.RLock()
	defer c.s.mu.RUnlock()
	return len(c.s.plans)
}
