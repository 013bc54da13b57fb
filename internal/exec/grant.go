package exec

import (
	"sync"
	"time"
)

// Grant is a claim on execution resources for one parallel dispatch,
// returned by Acquire: the process-wide pool when it was idle, no pool
// when it was busy — then every lane but the caller's is spawned, so the
// engine never queues and never deadlocks. Every grant must be consumed by
// exactly one Run call.
type Grant struct {
	workers int
	ctl     *Ctl  // cancellation control; nil = uncancellable
	pool    *Pool // nil = spawn fallback
}

// Key returns the plan-cache key for this grant: its worker count. A
// pooled and a spawned dispatch of one width share a plan; whichever finds
// its lock taken runs on a private frame.
func (g *Grant) Key() PlanKey { return PlanKey{Workers: g.workers} }

// grant claims p for a workers-wide dispatch without blocking, or returns
// the no-pool grant when p is busy — another dispatch is in flight,
// possibly from this very goroutine — or the dispatch is serial.
func (p *Pool) grant(workers int, ctl *Ctl) Grant {
	g := Grant{workers: workers, ctl: ctl}
	if workers > 1 && p.mu.TryLock() {
		g.pool = p
	}
	return g
}

// Run executes f(0..n-1) on the granted resources, waits for completion,
// and releases the pool. n at most g.workers; fewer (a partition that
// collapsed ranges) is fine. Run consumes the grant: a deferred Release
// afterwards is a no-op.
//
// Run is contained and cancellable. A panic on any lane, the caller's own
// included, comes back as a *PanicError with the pool serviceable, and
// poisons the grant's Ctl so the sibling lanes stop at their next chunk
// boundary; it wins over plain cancellation, being the root cause. Lanes
// that would start after the Ctl is cancelled never begin — kernels bound
// the latency further by polling the Ctl they passed to AcquireCtl
// between chunks — and a cancelled call reports the context's own error
// (context.Canceled or DeadlineExceeded). A caller that wants the panic
// re-panics the error.
func (g *Grant) Run(n int, f func(w int)) (err error) {
	p := g.pool
	g.pool = nil // consumed; Release becomes a no-op
	if p == nil && n > 1 {
		spawnFallbacks.Add(1)
	}
	c := call{f: f, ctl: g.ctl}
	var pe *PanicError // the first fault, lane 0's before any other
	posted := 0
	var sp *spill
	t0 := time.Now()
	// Completing in a defer keeps the engine consistent when lane 0 ends its
	// goroutine (runtime.Goexit: a t.FailNow inside a test's kernel): every
	// lane still retires before the pool unlocks and before the caller's
	// vectors are its own again.
	defer func() {
		if p != nil {
			p.claim(posted)
			if fault := p.drain(posted); pe == nil {
				pe = fault
			}
			p.runs.Add(1)
			p.busy.Add(int64(time.Since(t0)))
		}
		if sp != nil {
			sp.wg.Wait()
			if pe == nil {
				pe = sp.fault.take()
			}
		}
		if pe != nil {
			err = pe
		} else if c.ctl.Cancelled() {
			err = c.ctl.Err()
		}
	}()
	// The caller runs id 0; the pool's workers take ids from 1, and every id
	// beyond them is spawned rather than run serially on the caller after
	// its own lane.
	if p != nil {
		posted = p.post(c, 1, n-1)
	}
	for w := 1 + posted; w < n; w++ {
		if sp == nil {
			sp = new(spill)
		}
		sp.wg.Add(1)
		go sp.run(c, w)
	}
	pe = c.lane(0, false)
	return nil
}

// spill is the lanes of one dispatch that no pool could take, each on a
// goroutine of its own. A dispatch makes one only when a lane overflows.
type spill struct {
	fault panicSlot
	wg    sync.WaitGroup
}

func (s *spill) run(c call, w int) {
	defer s.wg.Done()
	s.fault.record(c.lane(w, false))
}

// Release frees a grant's pool without running work. It is a no-op after
// Run; kernels defer it so a panic between Acquire and Run (a failing plan
// builder, a shape check in a nested call) can never leave the pool locked
// for the life of the process.
func (g *Grant) Release() {
	if g.pool != nil {
		g.pool.mu.Unlock()
		g.pool = nil
	}
}

// ShardStat is the pool's cumulative dispatch statistics.
type ShardStat struct {
	Workers int           `json:"workers"` // pool workers (the caller adds one lane)
	Runs    uint64        `json:"runs"`    // dispatches served by the pool
	Busy    time.Duration `json:"busy_ns"` // cumulative wall time serving dispatches
	// How the lanes posted to the pool's workers were taken. A solver's
	// closed loop should land almost entirely in HotHandoffs; a pool whose
	// lanes go to ParkedWakes and CallerClaims sees dispatches further apart
	// than the workers' polling budget, and pays a wake for each.
	HotHandoffs  uint64 `json:"hot_handoffs"`  // by a worker that had not parked since its last lane
	ParkedWakes  uint64 `json:"parked_wakes"`  // by a worker woken from a park
	CallerClaims uint64 `json:"caller_claims"` // back by the dispatching goroutine, run inline
}

// EngineStats is a snapshot of the engine's dispatch counters.
type EngineStats struct {
	Shards []ShardStat `json:"shards"` // one entry: the pool
	// SpawnFallbacks is the process-wide count of spawned-goroutine
	// fallbacks.
	SpawnFallbacks uint64 `json:"spawn_fallbacks"`
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// thePool returns the process-wide pool every format kernel shares, sized
// at first use (defaultPoolSize); its workers start on the first parallel
// dispatch.
func thePool() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(defaultPoolSize()) })
	return defaultPool
}

// Acquire claims resources for a workers-wide dispatch on the process-wide
// pool.
func Acquire(workers int) Grant { return thePool().grant(workers, nil) }

// AcquireCtl is Acquire for a cancellable dispatch: the returned grant
// carries ctl, which Run's lanes and chunk-polling kernels consult. A nil
// ctl yields a grant identical to Acquire's.
func AcquireCtl(workers int, ctl *Ctl) Grant { return thePool().grant(workers, ctl) }

// Prestart spins up the process-wide pool's parked workers so the first
// timed kernel call does not pay pool construction.
func Prestart() { thePool().Prestart() }

// Stats snapshots the process-wide pool's dispatch statistics.
func Stats() EngineStats {
	p := thePool()
	return EngineStats{
		Shards: []ShardStat{{
			Workers:      p.size,
			Runs:         p.runs.Load(),
			Busy:         time.Duration(p.busy.Load()),
			HotHandoffs:  p.hot.Load(),
			ParkedWakes:  p.parked.Load(),
			CallerClaims: p.claims.Load(),
		}},
		SpawnFallbacks: SpawnFallbacks(),
	}
}
