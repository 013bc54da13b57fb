package exec

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/topo"
)

// AnyShard is the PlanKey shard id for dispatches not bound to a single
// shard: gang-scheduled calls and spawn fallbacks.
const AnyShard = -1

// maxGang bounds how many shards one grant can gang-schedule across. Eight
// covers every contemporary multi-socket topology; a machine with more
// domains simply runs the widest calls over the first eight idle shards,
// spawning goroutines for the remainder.
const maxGang = 8

// shard is one engine pool plus its dispatch statistics.
type shard struct {
	pool   *Pool
	id     int // shard index within the engine; orders ganged dispatches
	domain int // topo domain id the shard's workers prefer
	// capacity is the shard's effective parallel width in lanes. On
	// multi-domain machines it is the domain's CPU count, which may be
	// below the pool's parked-worker floor: the gang trigger compares the
	// requested workers against capacity, so a call wider than one domain
	// spreads across shards instead of stacking on one domain's pinned
	// CPUs. Where CPUs are unknown it is the full lane count (parked
	// workers plus the caller).
	capacity int

	runs     atomic.Uint64 // single-shard dispatches served
	gangRuns atomic.Uint64 // ganged dispatches this shard participated in
	busy     atomic.Int64  // cumulative nanoseconds spent serving dispatches
}

// Engine is the sharded execution engine: one worker-pool shard per
// topology domain (or per requested shard, see topo.Shards), each parking
// its workers independently. Independent concurrent SpMV calls are routed
// round-robin to idle shards; a single call wider than one shard
// gang-schedules across every idle shard. The zero value is valid and
// builds its shards lazily; when topo.Shards changes (SetShards or a new
// SPMV_SHARDS evaluation), the next dispatch rebuilds the shard set.
type Engine struct {
	mu    sync.Mutex // serializes rebuilds
	state atomic.Pointer[engineState]
	next  atomic.Uint32 // round-robin routing cursor
}

type engineState struct {
	shards []*shard
}

// shards returns the current shard set, (re)building it when the requested
// shard count changed. The warm path is one atomic load.
func (e *Engine) shards() []*shard {
	want := topo.Shards()
	if st := e.state.Load(); st != nil && len(st.shards) == want {
		return st.shards
	}
	return e.rebuild(want)
}

func (e *Engine) rebuild(want int) []*shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.state.Load(); st != nil {
		if len(st.shards) == want {
			return st.shards
		}
		// Close waits for each old shard's in-flight dispatch (it takes the
		// pool mutex), so resharding never strands running work.
		for _, s := range st.shards {
			s.pool.Close()
		}
	}
	doms := topo.Assign(want)
	// Pinning only makes sense when every domain has at least one shard:
	// with fewer shards than domains (an undersharded override such as
	// -shards 1 on a dual-socket box), pinning would confine the whole
	// engine to the first domains' CPUs and leave the rest of the machine
	// idle, so those shards stay unpinned and machine-wide.
	pinned := topo.NumDomains() > 1 && want >= topo.NumDomains()
	shards := make([]*shard, want)
	for i := range shards {
		d := doms[i]
		cpus := 0
		if pinned {
			cpus = len(d.CPUs)
		}
		p := &Pool{size: shardPoolSize(cpus, want)}
		capacity := p.size + 1
		if pinned && len(d.CPUs) > 0 {
			dcpus := d.CPUs
			p.pin = func() { _ = topo.PinSelf(dcpus) } // best effort
			// Pinned workers share the domain's CPUs: cap the lanes the
			// dispatcher uses at the CPU count so a wide call gangs across
			// domains rather than stacking on one domain's cores (the
			// parked-worker floor can exceed small domains).
			if capacity = len(dcpus); capacity < 2 {
				capacity = 2 // always keep one real worker lane
			}
		}
		shards[i] = &shard{pool: p, id: i, domain: d.ID, capacity: capacity}
	}
	e.state.Store(&engineState{shards: shards})
	return shards
}

// shardPoolSize sizes one shard's parked workers from its domain's CPU
// count (GOMAXPROCS split across shards when the platform cannot say),
// with the same floor as defaultPoolSize so tests get real goroutine
// interleaving on small machines. Sizing shards to their domain is what
// makes dispatch topology-aware: a call that fits one domain's cores stays
// on one shard, and only wider calls gang across domains.
func shardPoolSize(cpus, shards int) int {
	if cpus == 0 {
		cpus = runtime.GOMAXPROCS(0) / shards
	}
	if n := cpus - 1; n > 7 {
		return n
	}
	return 7
}

// Grant is a claim on execution resources for one parallel dispatch,
// returned by Acquire. A grant pins down where the call will run before
// the kernel looks up its plan, so the plan can be cached per placement
// (PlanKey) and, for ganged grants, partitioned per domain. Every grant
// must be consumed by exactly one Run call.
type Grant struct {
	workers int
	shardID int
	np      int  // pools acquired; 0 = spawn fallback
	ctl     *Ctl // cancellation control for Ctx dispatches; nil = uncancellable
	pools   [maxGang]*shard
}

// Ctl returns the grant's cancellation control (nil for uncancellable
// grants). Kernels poll g.Ctl().Cancelled() at chunk granularity inside
// their partition loops; the nil receiver is valid and always reports
// false, so uncancellable kernels share the same code path.
func (g *Grant) Ctl() *Ctl { return g.ctl }

// Key returns the plan-cache key for this grant's placement.
func (g *Grant) Key() PlanKey {
	d := g.np
	if d < 1 {
		d = 1
	}
	return PlanKey{Shard: g.shardID, Domains: d, Workers: g.workers}
}

// ShardID returns the shard the grant landed on, or AnyShard for ganged
// and spawn-fallback grants.
func (g *Grant) ShardID() int { return g.shardID }

// Domains returns how many shards the grant spans: 1 for single-shard and
// fallback grants, the gang width for ganged grants.
func (g *Grant) Domains() int {
	if g.np < 1 {
		return 1
	}
	return g.np
}

// Acquire claims execution resources for a dispatch of up to `workers`
// shards. Routing walks the shards round-robin from a rotating cursor and
// takes the first idle one; if that shard's lanes (its parked workers plus
// the caller) cannot cover the request and other shards are idle, the
// grant gangs them in. When every shard is busy the grant is a spawn
// fallback, preserving the engine's never-queue, never-deadlock property.
func (e *Engine) Acquire(workers int) Grant {
	g := Grant{workers: workers, shardID: AnyShard}
	if workers <= 1 {
		return g
	}
	shards := e.shards()
	n := len(shards)
	// Modulo in uint32 space: the wrapping cursor must never go negative
	// through an int conversion on 32-bit platforms.
	start := int((e.next.Add(1) - 1) % uint32(n))
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		s := shards[idx]
		if s.pool.mu.TryLock() {
			if s.pool.closed {
				// A reshard raced this acquire; skip the dead pool.
				s.pool.mu.Unlock()
				continue
			}
			g.pools[0], g.np, g.shardID = s, 1, idx
			break
		}
	}
	if g.np == 0 {
		return g
	}
	if lanes := g.pools[0].capacity; lanes < workers && n > 1 {
		for i := 1; i < n && g.np < maxGang && lanes < workers; i++ {
			s := shards[(g.shardID+i)%n]
			if s.pool.mu.TryLock() {
				if s.pool.closed {
					s.pool.mu.Unlock()
					continue
				}
				g.pools[g.np] = s
				g.np++
				lanes += s.capacity
			}
		}
		if g.np > 1 {
			// Order the gang by shard index so the plan's domain slice j
			// always lands on the j-th lowest enlisted shard: the rotating
			// cursor acquires pools in varying order, and without this sort
			// the same matrix slice would migrate across sockets call to
			// call, defeating pinning and cross-call cache reuse.
			for i := 1; i < g.np; i++ {
				for k := i; k > 0 && g.pools[k].id < g.pools[k-1].id; k-- {
					g.pools[k], g.pools[k-1] = g.pools[k-1], g.pools[k]
				}
			}
			g.shardID = AnyShard
		}
	}
	return g
}

// AcquireCtl is Acquire for a cancellable dispatch: the returned grant
// carries ctl, which the Ctx run methods and chunk-polling kernels consult.
// A nil ctl yields a grant identical to Acquire's.
func (e *Engine) AcquireCtl(workers int, ctl *Ctl) Grant {
	g := e.Acquire(workers)
	g.ctl = ctl
	return g
}

// Run executes f(0..n-1) on the granted resources, waits for completion,
// and releases every acquired shard. n at most g.workers; fewer (a
// partition that collapsed ranges) is fine. Run consumes the grant: a
// deferred Release afterwards is a no-op. Ganged dispatches block ids
// arithmetically; kernels whose plan carries a per-domain offset table
// should use RunPlan so collapsed partitions stay on their own domain.
//
// A panic on a worker lane is contained by the engine (the shard stays
// serviceable) and re-panics here with a *PanicError value; a panic on the
// caller's own lane propagates unchanged. Callers that want an error
// instead use RunCtx.
func (g *Grant) Run(n int, f func(w int)) {
	if pe := g.runE(n, nil, f); pe != nil {
		panic(pe)
	}
}

// RunPlan executes f over a range-partitioned plan: f(0..len(pl.Ranges)-1),
// with ganged dispatches blocked by the plan's DomainOff table when present
// — range ids [DomainOff[j], DomainOff[j+1]) run on the j-th enlisted
// shard, exactly the domain the plan builder assigned them to. Like Run it
// waits, releases every acquired shard, and consumes the grant. Panic
// semantics match Run.
func (g *Grant) RunPlan(pl *Plan, f func(w int)) {
	if pe := g.runE(len(pl.Ranges), pl.DomainOff, f); pe != nil {
		panic(pe)
	}
}

// RunCtx is the cancellable, fault-isolated Run: it executes f(0..n-1),
// skips lanes that start after the grant's Ctl is cancelled, converts any
// lane panic (caller lane included) into a *PanicError return, and reports
// the context's error when the call was cancelled. Kernels bound the
// cancellation latency by polling g.Ctl().Cancelled() between chunks of
// their assigned range; RunCtx itself guarantees only that un-started
// lanes never begin. The shard remains serviceable after any failure.
func (g *Grant) RunCtx(n int, f func(w int)) error {
	return g.runCtx(n, nil, f)
}

// RunPlanCtx is RunPlan with RunCtx's cancellation and panic-to-error
// semantics.
func (g *Grant) RunPlanCtx(pl *Plan, f func(w int)) error {
	return g.runCtx(len(pl.Ranges), pl.DomainOff, f)
}

// runCtx wraps every lane of a dispatch with a cancellation gate and a
// panic trap, then reports the first fault as an error: a lane panic wins
// over plain cancellation (the panic is the root cause — it also poisons
// the Ctl so sibling lanes stop at their next chunk boundary), and a
// cancelled call reports the context's own error (context.Canceled or
// DeadlineExceeded).
func (g *Grant) runCtx(n int, off []int, f func(w int)) (err error) {
	ctl := g.ctl
	if ctl == nil {
		// Uncancellable dispatch: nothing to gate or poison, so the lanes
		// run unwrapped (no per-call allocation). Worker-lane panics are
		// already contained by the pools; only the caller's own lanes need
		// the trap.
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		if pe := g.runE(n, off, f); pe != nil {
			return pe
		}
		return nil
	}
	var ps panicSlot
	wf := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				ps.record(w, r, debug.Stack())
				ctl.poison()
			}
		}()
		if ctl.Cancelled() {
			return
		}
		f(w)
	}
	pe := g.runE(n, off, wf)
	if pe == nil {
		pe = ps.take()
	}
	if pe != nil {
		return pe
	}
	if err := ctl.Err(); err != nil && ctl.Cancelled() {
		return err
	}
	return nil
}

// gangBlocks fills blk[0..nb] with the worker-id block bounds per enlisted
// shard — shard j runs ids [blk[j], blk[j+1]) — and returns nb, the number
// of blocks. With a plan offset table (len(off)-1 domain slices, at most
// np), the blocks are the plan's own per-domain range groups; otherwise
// they are the arithmetic split of `workers` ids used when building plans
// for this placement. Bounds are clamped to n.
func gangBlocks(np, workers, n int, off []int, blk *[maxGang + 1]int) int {
	if len(off) >= 2 && len(off)-1 <= np {
		nb := len(off) - 1
		for j := 0; j <= nb; j++ {
			b := off[j]
			if b > n {
				b = n
			}
			blk[j] = b
		}
		return nb
	}
	for j := 0; j <= np; j++ {
		b := workers * j / np
		if b > n {
			b = n
		}
		blk[j] = b
	}
	return np
}

// runE is the shared implementation of every Run variant; off is the
// plan's per-domain offset table or nil for arithmetic gang blocks. It
// returns the first contained panic from a worker lane (pool worker or
// spawned overflow goroutine) — the callers decide whether that re-panics
// (Run/RunPlan) or becomes an error (RunCtx/RunPlanCtx). A panic on the
// caller's own lane unwinds through runE; the defers still drain every
// woken worker and release every pool, so the engine survives that too.
func (g *Grant) runE(n int, off []int, f func(w int)) (pe *PanicError) {
	np := g.np
	g.np = 0 // consumed; Release becomes a no-op
	if np == 0 {
		if n <= 1 {
			f(0)
			return nil
		}
		spawnFallbacks.Add(1)
		return spawnRunE(n, f)
	}
	if n <= 1 {
		// A collapsed partition: the shards were held but no workers run.
		// Still counts as served dispatches so the shards report reflects
		// real engine traffic.
		for j := 0; j < np; j++ {
			g.pools[j].pool.mu.Unlock()
			g.pools[j].runs.Add(1)
		}
		f(0)
		return nil
	}
	if np == 1 {
		s := g.pools[0]
		t0 := time.Now()
		if lanes := s.pool.size + 1; n > lanes {
			// A wide call landed on one shard because every other shard was
			// busy: spawn the overflow ids so they run concurrently instead
			// of serializing on the caller after its own lane (PR 1 spawned
			// the whole call in this situation).
			var ps panicSlot // contained panics from the overflow goroutines
			var wg sync.WaitGroup
			// Wait again in a defer: if a pooled lane panics, the spawned
			// goroutines must not be left writing y while the caller
			// unwinds and possibly retries with the same vector.
			defer wg.Wait()
			wg.Add(n - lanes)
			for w := lanes; w < n; w++ {
				go func(w int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							ps.record(w, r, debug.Stack())
						}
					}()
					f(w)
				}(w)
			}
			pe = s.pool.runLockedE(lanes, f)
			wg.Wait()
			if pe == nil {
				pe = ps.take()
			}
		} else {
			pe = s.pool.runLockedE(n, f)
		}
		s.busy.Add(int64(time.Since(t0)))
		s.runs.Add(1)
		return pe
	}
	// Ganged dispatch: shard j's workers take the consecutive id block
	// gangBlocks assigns them — the plan's own per-domain range group when
	// the plan carries an offset table, else the arithmetic block
	// [w*j/np, w*(j+1)/np) that sched.DomainSplit produces for this
	// placement (Domains=np, Workers=w) when no range collapses — so each
	// domain's slice of the matrix is walked by the shard pinned to that
	// domain. The caller runs id 0 as a lane of the first shard; ids a pool
	// cannot post (its workers are fewer than its share) are spawned so
	// they still run concurrently.
	var blk [maxGang + 1]int
	nb := gangBlocks(np, g.workers, n, off, &blk)
	t0 := time.Now()
	var ps panicSlot // contained panics from spawned overflow goroutines
	var posted [maxGang]int
	defer func() {
		// Drain in a defer so a panicking caller shard still retires every
		// posted lane before the pools unlock. Each drain harvests that
		// pool's contained-panic slot; the first fault across the gang (and
		// the overflow spawns) is the one reported.
		for j := 0; j < np; j++ {
			s := g.pools[j]
			if p := s.pool.drain(posted[j]); pe == nil {
				pe = p
			}
			s.gangRuns.Add(1)
		}
		if pe == nil {
			pe = ps.take()
		}
		d := int64(time.Since(t0))
		for j := 0; j < np; j++ {
			g.pools[j].busy.Add(d)
		}
	}()
	var spawned sync.WaitGroup
	// As with the drain defer above: a panicking caller lane must not leave
	// spawned overflow goroutines still writing y after the call unwinds.
	defer spawned.Wait()
	for j := 0; j < nb; j++ {
		lo := blk[j]
		hi := blk[j+1]
		if j == 0 {
			lo = 1 // the caller runs id 0, a lane of the first shard
		}
		if lo >= hi {
			continue
		}
		posted[j] = g.pools[j].pool.dispatch(f, lo, hi-lo)
		// Ids of this domain's block beyond the pool's workers are spawned
		// rather than handed to the next shard, so they never run on
		// another domain's pinned cores.
		for v := lo + posted[j]; v < hi; v++ {
			spawned.Add(1)
			go func(v int) {
				defer spawned.Done()
				defer func() {
					if r := recover(); r != nil {
						ps.record(v, r, debug.Stack())
					}
				}()
				f(v)
			}(v)
		}
	}
	f(0)
	// Claim across the whole gang before the deferred drains wait on any one
	// shard of it.
	for j := 0; j < np; j++ {
		g.pools[j].pool.claim(posted[j])
	}
	spawned.Wait()
	return
}

// Release frees a grant's shards without running work. It is a no-op after
// Run; kernels defer it so a panic between Acquire and Run (a failing plan
// builder, a shape check in a nested call) can never leave a shard locked
// for the life of the process.
func (g *Grant) Release() {
	for j := 0; j < g.np; j++ {
		g.pools[j].pool.mu.Unlock()
	}
	g.np = 0
}

// ShardStat is one shard's identity and cumulative dispatch statistics.
type ShardStat struct {
	Shard    int           `json:"shard"`     // shard index within the engine
	Domain   int           `json:"domain"`    // topo domain id the shard's workers prefer
	Workers  int           `json:"workers"`   // pool workers (the caller adds one lane)
	Runs     uint64        `json:"runs"`      // single-shard dispatches served
	GangRuns uint64        `json:"gang_runs"` // ganged dispatches participated in
	Busy     time.Duration `json:"busy_ns"`   // cumulative wall time serving dispatches
	// How the lanes posted to this shard's workers were taken. A solver's
	// closed loop should land almost entirely in HotHandoffs; a shard whose
	// lanes go to ParkedWakes and CallerClaims sees dispatches further apart
	// than the workers' polling budget, and pays a wake for each.
	HotHandoffs  uint64 `json:"hot_handoffs"`  // by a worker that had not parked since its last lane
	ParkedWakes  uint64 `json:"parked_wakes"`  // by a worker woken from a park
	CallerClaims uint64 `json:"caller_claims"` // back by the dispatching goroutine, run inline
}

// EngineStats is a snapshot of the engine's dispatch counters.
type EngineStats struct {
	Shards []ShardStat `json:"shards"`
	// SpawnFallbacks is the process-wide count of spawned-goroutine
	// fallbacks.
	SpawnFallbacks uint64 `json:"spawn_fallbacks"`
}

// Stats snapshots per-shard dispatch statistics.
func (e *Engine) Stats() EngineStats {
	shards := e.shards()
	st := EngineStats{
		Shards:         make([]ShardStat, len(shards)),
		SpawnFallbacks: SpawnFallbacks(),
	}
	for i, s := range shards {
		st.Shards[i] = ShardStat{
			Shard:    i,
			Domain:   s.domain,
			Workers:  s.pool.size,
			Runs:     s.runs.Load(),
			GangRuns: s.gangRuns.Load(),
			Busy:     time.Duration(s.busy.Load()),

			HotHandoffs:  s.pool.hot.Load(),
			ParkedWakes:  s.pool.parked.Load(),
			CallerClaims: s.pool.claims.Load(),
		}
	}
	return st
}

// Prestart spins up every shard's parked workers so the first timed kernel
// call does not pay pool construction.
func (e *Engine) Prestart() {
	for _, s := range e.shards() {
		s.pool.Prestart()
	}
}

// defaultEngine is the process-wide engine all format kernels share.
var defaultEngine Engine

// Acquire claims resources for a workers-wide dispatch on the process-wide
// engine.
func Acquire(workers int) Grant { return defaultEngine.Acquire(workers) }

// AcquireCtl claims resources for a cancellable workers-wide dispatch on
// the process-wide engine.
func AcquireCtl(workers int, ctl *Ctl) Grant { return defaultEngine.AcquireCtl(workers, ctl) }

// Run executes f(0..n-1) on the process-wide engine and waits.
func Run(n int, f func(w int)) {
	g := Acquire(n)
	g.Run(n, f)
}

// Prestart spins up every shard of the process-wide engine.
func Prestart() { defaultEngine.Prestart() }

// Stats snapshots the process-wide engine's dispatch statistics.
func Stats() EngineStats { return defaultEngine.Stats() }
