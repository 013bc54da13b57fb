package exec

import (
	"runtime"
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
	shards []*Pool
}

// shards returns the current shard set, (re)building it when the requested
// shard count changed. The warm path is one atomic load.
func (e *Engine) shards() []*Pool {
	want := topo.Shards()
	if st := e.state.Load(); st != nil && len(st.shards) == want {
		return st.shards
	}
	return e.rebuild(want)
}

func (e *Engine) rebuild(want int) []*Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.state.Load(); st != nil {
		if len(st.shards) == want {
			return st.shards
		}
		// Close waits for each old shard's in-flight dispatch (it takes the
		// pool mutex), so resharding never strands running work.
		for _, s := range st.shards {
			s.Close()
		}
	}
	doms := topo.Assign(want)
	// Pinning only makes sense when every domain has at least one shard:
	// with fewer shards than domains (an undersharded override such as
	// -shards 1 on a dual-socket box), pinning would confine the whole
	// engine to the first domains' CPUs and leave the rest of the machine
	// idle, so those shards stay unpinned and machine-wide.
	pinned := topo.NumDomains() > 1 && want >= topo.NumDomains()
	shards := make([]*Pool, want)
	for i := range shards {
		d := doms[i]
		cpus := 0
		if pinned {
			cpus = len(d.CPUs)
		}
		p := &Pool{size: shardPoolSize(cpus, want), id: i, domain: d.ID}
		p.capacity = p.size + 1
		if pinned && len(d.CPUs) > 0 {
			dcpus := d.CPUs
			p.pin = func() { _ = topo.PinSelf(dcpus) } // best effort
			// Pinned workers share the domain's CPUs: cap the lanes the
			// dispatcher uses at the CPU count so a wide call gangs across
			// domains rather than stacking on one domain's cores (the
			// parked-worker floor can exceed small domains).
			if p.capacity = len(dcpus); p.capacity < 2 {
				p.capacity = 2 // always keep one real worker lane
			}
		}
		shards[i] = p
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
	ctl     *Ctl // cancellation control; nil = uncancellable
	pools   [maxGang]*Pool
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
		if s.mu.TryLock() {
			if s.closed {
				// A reshard raced this acquire; skip the dead pool.
				s.mu.Unlock()
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
			if s.mu.TryLock() {
				if s.closed {
					s.mu.Unlock()
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
// carries ctl, which Run's lanes and chunk-polling kernels consult. A nil
// ctl yields a grant identical to Acquire's.
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
// Run is contained and cancellable. A panic on any lane, the caller's own
// included, comes back as a *PanicError with every shard serviceable, and
// poisons the grant's Ctl so the sibling lanes stop at their next chunk
// boundary; it wins over plain cancellation, being the root cause. Lanes
// that would start after the Ctl is cancelled never begin — kernels bound
// the latency further by polling g.Ctl().Cancelled() between chunks — and
// a cancelled call reports the context's own error (context.Canceled or
// DeadlineExceeded). A caller that wants the panic re-panics the error.
func (g *Grant) Run(n int, f func(w int)) error { return g.run(n, nil, f) }

// RunPlan is Run over a range-partitioned plan: f(0..len(pl.Ranges)-1),
// with ganged dispatches blocked by the plan's DomainOff table when present
// — range ids [DomainOff[j], DomainOff[j+1]) run on the j-th enlisted
// shard, exactly the domain the plan builder assigned them to.
func (g *Grant) RunPlan(pl *Plan, f func(w int)) error {
	return g.run(len(pl.Ranges), pl.DomainOff, f)
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

// run is the one dispatch: the caller runs lane 0, each enlisted pool is
// posted its block of lane ids, every lane no pool could take is spawned,
// and then the caller claims what no worker has started, drains and
// releases. off is the plan's per-domain offset table or nil for arithmetic
// blocks. Pool j's workers take the consecutive id block gangBlocks assigns
// them — the plan's own per-domain range group when the plan carries an
// offset table, else the arithmetic block [w*j/np, w*(j+1)/np) that
// sched.DomainSplit produces for this placement (Domains=np, Workers=w)
// when no range collapses — so each domain's slice of the matrix is walked
// by the shard pinned to that domain. A busy engine is the case of no pool
// (one block, all of it spawned: the seed-era path, which never queues and
// never deadlocks), a single shard the case of one.
func (g *Grant) run(n int, off []int, f func(w int)) (err error) {
	pools := g.pools[:g.np]
	g.np = 0 // consumed; Release becomes a no-op
	if len(pools) == 0 && n > 1 {
		spawnFallbacks.Add(1)
	}
	var blk [maxGang + 1]int
	nb := gangBlocks(max(len(pools), 1), g.workers, n, off, &blk)
	c := call{f: f, ctl: g.ctl}
	var pe *PanicError // the first fault, lane 0's before any other
	var posted [maxGang]int
	var sp *spill
	t0 := time.Now()
	// Completing in a defer keeps the engine consistent when lane 0 ends its
	// goroutine (runtime.Goexit: a t.FailNow inside a test's kernel): every
	// lane still retires before its pool unlocks and before the caller's
	// vectors are its own again.
	defer func() {
		// Claim across the whole gang before waiting on any one shard of it.
		for j, p := range pools {
			p.claim(posted[j])
		}
		for j, p := range pools {
			if fault := p.drain(posted[j]); pe == nil {
				pe = fault
			}
			if len(pools) > 1 {
				p.gangRuns.Add(1)
			} else {
				p.runs.Add(1)
			}
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
	for j := 0; j < nb; j++ {
		lo, hi := blk[j], blk[j+1]
		if j == 0 {
			lo = 1 // the caller runs id 0, a lane of the first block
		}
		if j < len(pools) {
			posted[j] = pools[j].post(c, lo, hi-lo)
		}
		// Ids of a block beyond its pool's workers are spawned rather than
		// handed to the next shard, so they never run on another domain's
		// pinned cores, and never serially on the caller after its own lane.
		for w := lo + posted[j]; w < hi; w++ {
			if sp == nil {
				sp = new(spill)
			}
			sp.wg.Add(1)
			go sp.run(c, w)
		}
	}
	pe = c.lane(0, false)
	return nil
}

// Release frees a grant's shards without running work. It is a no-op after
// Run; kernels defer it so a panic between Acquire and Run (a failing plan
// builder, a shape check in a nested call) can never leave a shard locked
// for the life of the process.
func (g *Grant) Release() {
	for _, p := range g.pools[:g.np] {
		p.mu.Unlock()
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
	for i, p := range shards {
		st.Shards[i] = ShardStat{
			Shard:    i,
			Domain:   p.domain,
			Workers:  p.size,
			Runs:     p.runs.Load(),
			GangRuns: p.gangRuns.Load(),
			Busy:     time.Duration(p.busy.Load()),

			HotHandoffs:  p.hot.Load(),
			ParkedWakes:  p.parked.Load(),
			CallerClaims: p.claims.Load(),
		}
	}
	return st
}

// Prestart spins up every shard's parked workers so the first timed kernel
// call does not pay pool construction.
func (e *Engine) Prestart() {
	for _, p := range e.shards() {
		p.Prestart()
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

// Prestart spins up every shard of the process-wide engine.
func Prestart() { defaultEngine.Prestart() }

// Stats snapshots the process-wide engine's dispatch statistics.
func Stats() EngineStats { return defaultEngine.Stats() }
