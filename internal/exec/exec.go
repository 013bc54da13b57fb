// Package exec is the persistent SpMV execution engine: one worker pool
// that format kernels dispatch onto, plus inspector-style execution plans
// that cache each format's partition (and the dispatcher's lane frame)
// keyed by worker count.
//
// The seed implementation paid a goroutine-spawn + sync.WaitGroup round
// trip and recomputed its sched partition on every SpMV call. For the
// iterative workloads this repository targets (CG solves, benchmark loops,
// persistent serving), that per-call overhead dwarfs the kernel itself on
// small and medium matrices. The engine follows the inspector-executor
// discipline of MKL-IE, SELL-C-sigma and merge-based SpMV: analyze once,
// execute many times.
//
// Four mechanisms deliver steady-state calls with zero scheduling work and
// no allocation:
//
//   - Pool: worker goroutines are reused across calls and take their lanes
//     from per-worker atomic slots. A worker that has just finished a lane
//     polls its slot for spinBudget before it parks, so the closed loop of
//     an iterative solver hands each lane to a running worker: measured on
//     a 2-vCPU KVM guest, a 2-lane round trip with 50 us of work per lane
//     takes 50.5 us onto a polling worker and 113 us onto a parked one,
//     which is no better than running both lanes on the caller (spawning
//     costs as much, and allocates). The caller participates as worker 0
//     and, once its own lane is done, runs every posted lane no worker has
//     taken yet, so a dispatch onto parked workers costs at most the
//     serial time.
//   - Grant: the process-wide pool, started lazily, serves one dispatch at
//     a time. A call Acquires a grant, which holds the pool when it is
//     idle; a call that finds it busy runs every lane but its own on
//     spawned goroutines, so the engine never deadlocks and never queues.
//     A call wider than the pool spawns the lanes its workers cannot take.
//   - Plan/PlanCache: a format computes its sched.Range partition once per
//     PlanKey — the worker count a grant reports — and caches it, with the
//     dispatcher's lane frame, inside the format instance. Matrices are
//     immutable after build, so plans never invalidate. Two calls in flight
//     on one instance share the plan; the one that finds its lock taken
//     runs on a private frame.
//   - Workers: a serial fast-path cutoff. Parallelism below MinGrain work
//     items per worker costs more in handoff latency than it saves, and
//     worker counts beyond the machine's parallelism only add overhead, so
//     tiny kernels run inline on the caller.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MinGrain is the minimum number of work items (nonzeros, padded slots)
// per worker below which the engine shrinks the worker count. A lane of
// 4k items is a few microseconds of kernel. Handing it to a polling worker
// costs under a microsecond, which it amortizes. A parked worker adds
// about 60 us to the round trip (see spinBudget), which it does not; there
// the caller's claim of unstarted lanes bounds the dispatch at the serial
// time.
const MinGrain = 4096

// spinBudget is how long a worker polls its slot after a lane before it
// parks, and how long a dispatcher polls for completion before it blocks.
// It is what a parked worker costs a dispatch, rounded up: on a 2-vCPU KVM
// guest a 2-lane round trip with 50 us of work per lane takes 113 us onto
// a parked worker and 50.5 us onto a polling one. Polling for as long as
// the wake it avoids costs is the 2-competitive spin-then-block rule: a
// worker never burns more than twice what parking at once would have. It
// is a constant, not a setting: the wake it is measured against is a
// property of the scheduler and the host's idle states, not of a workload.
const spinBudget = 100 * time.Microsecond

// spinBatch is how many polls separate two readings of the clock.
const spinBatch = 64

// A lane slot holds the id posted to its worker (>= 1: id 0 is always the
// caller's), or one of these.
const (
	laneEmpty  = 0  // nothing posted; the worker is running or polling
	laneParked = -1 // the worker blocks on its wake channel until a token arrives
)

// lane is one worker's handoff slot, padded so that a polling worker shares
// its cache line with no other worker.
type lane struct {
	slot atomic.Int64
	_    [56]byte
}

// await returns the next lane id posted to the slot, polling for up to
// spinBudget when spin is set. A return of 0 means nothing came and the
// slot now reads laneParked.
func (ln *lane) await(spin bool) int64 {
	var start time.Time
	if spin {
		start = time.Now()
	}
	for polls := 1; ; polls++ {
		if id := ln.slot.Load(); id > 0 {
			if ln.slot.CompareAndSwap(id, laneEmpty) {
				return id
			}
			continue // the dispatcher claimed it back
		}
		if spin && (polls%spinBatch != 0 || time.Since(start) < spinBudget) {
			continue
		}
		if ln.slot.CompareAndSwap(laneEmpty, laneParked) {
			return 0
		}
	}
}

// maxWorkers caps the worker count kernels actually use; 0 means
// runtime.GOMAXPROCS(0). Tests raise it to exercise parallel paths on
// small machines.
var maxWorkers atomic.Int64

// MaxWorkers returns the current worker-count cap.
func MaxWorkers() int {
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers overrides the worker-count cap; n <= 0 restores the
// GOMAXPROCS default. It returns the previous override (0 if none), so
// tests can restore it.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int64(n)))
}

// Workers returns the worker count the engine uses for a kernel over the
// given number of work items when the caller requested `requested` workers:
// at most MaxWorkers, at most one worker per MinGrain work items, and at
// least 1. A return of 1 is the serial fast path — kernels run inline
// without touching the pool.
func Workers(work int64, requested int) int {
	if mx := MaxWorkers(); requested > mx {
		requested = mx
	}
	if g := work / MinGrain; int64(requested) > g {
		requested = int(g)
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// Pool is a persistent worker pool — the engine's, or a standalone pool
// for tests. The zero value is valid: workers start lazily on the first
// parallel Run. A Pool must not be copied after use.
type Pool struct {
	mu      sync.Mutex // held for the duration of one dispatch
	started bool
	closed  bool
	size    int  // pool workers; excludes the caller
	call    call // what the in-flight dispatch's lanes run
	// fault is the first panic among them: whoever runs a lane contains it
	// there (so a worker survives and retires the lane) and the dispatcher
	// harvests it before the pool unlocks.
	fault panicSlot
	lanes []lane          // lanes[i] is worker i's slot
	wake  []chan struct{} // one token on wake[i] ends worker i's park
	// done receives one token per dispatch, from whoever retires the last
	// of its posted lanes.
	done    chan struct{}
	pending atomic.Int32 // posted lanes not yet retired
	// spinners is how many workers poll after a lane of the in-flight
	// dispatch; those at or above that index park at once, and at 0 nothing
	// polls, the dispatcher included. It is GOMAXPROCS-1 — with the caller
	// on one CPU there are only that many left to poll on — when this
	// dispatch came within spinBudget of the one before, when polling for
	// the budget would have caught it, and 0 when it came later: a pool
	// whose dispatches are further apart than the budget would lose every
	// poll it made.
	spinners atomic.Int32
	idle     time.Time   // when the last dispatch drained
	waiting  atomic.Bool // the dispatcher has blocked on done
	// How the posted lanes were taken: by a worker that had not parked
	// since its last lane, by a worker woken from a park, or back by the
	// dispatcher, which ran them inline.
	hot, parked, claims atomic.Uint64

	runs atomic.Uint64 // dispatches served
	busy atomic.Int64  // cumulative nanoseconds spent serving dispatches
}

// NewPool returns a pool with the given number of parked workers (the
// caller of Run always participates, so a size-N pool executes N+1 lanes
// concurrently). size <= 0 selects the default sizing.
func NewPool(size int) *Pool {
	return &Pool{size: size}
}

// defaultPoolSize keeps enough parked workers for the machine, with a
// floor so tests exercising parallel carry logic get real goroutine
// interleaving even on single-core machines. Parked workers cost only
// their (small) stacks.
func defaultPoolSize() int {
	if n := runtime.GOMAXPROCS(0) - 1; n > 7 {
		return n
	}
	return 7
}

func (p *Pool) ensureStarted() {
	if p.started || p.closed {
		return
	}
	if p.size <= 0 {
		p.size = defaultPoolSize()
	}
	p.lanes = make([]lane, p.size)
	p.wake = make([]chan struct{}, p.size)
	p.done = make(chan struct{}, 1)
	for i := range p.wake {
		p.lanes[i].slot.Store(laneParked)
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i, &p.lanes[i], p.wake[i])
	}
	p.started = true
}

// worker i runs the lanes posted to its slot. It starts parked. Slot and
// channel are captured at spawn so a later Close (which nils the pool's
// slices) cannot race with a worker that has not yet been scheduled.
func (p *Pool) worker(i int, ln *lane, wake <-chan struct{}) {
	for {
		// The slot reads laneParked: the poster that replaces it sends the
		// one token that ends this park, and Close closes the channel.
		if _, ok := <-wake; !ok {
			return
		}
		woke := true
		for {
			id := ln.await(p.spins(i))
			if id == 0 {
				break
			}
			p.fault.record(p.call.lane(int(id), true))
			if woke {
				p.parked.Add(1)
			} else {
				p.hot.Add(1)
			}
			woke = false
			if !p.spins(i) {
				// Parked before the lane is retired: nothing is posted to a
				// slot until its dispatch has drained, so a worker that may
				// not poll never takes a lane hot.
				ln.slot.Store(laneParked)
				p.retire()
				break
			}
			if p.retire() && p.waiting.Load() &&
				ln.slot.CompareAndSwap(laneEmpty, laneParked) {
				// That token readied a blocked dispatcher into this worker's
				// own run queue: parking gives it the CPU now, polling would
				// sit on it for the budget.
				break
			}
		}
	}
}

// spins reports whether worker i polls its slot before parking.
func (p *Pool) spins(i int) bool { return int32(i) < p.spinners.Load() }

// retire marks one posted lane of the in-flight dispatch finished, and
// reports whether it was the last: whoever retires the last lane leaves the
// dispatch's done token.
func (p *Pool) retire() bool {
	if p.pending.Add(-1) != 0 {
		return false
	}
	p.done <- struct{}{}
	return true
}

// post hands the consecutive lane ids lo, lo+1, ... of a dispatch to up to
// max workers (capped at the pool size) and returns how many it posted,
// without waiting. Worker i's id goes into its slot; a worker found parked
// also gets its token. The caller must hold p.mu and must later claim and
// drain exactly that many. A closed pool posts nothing: a Run raced a
// Close, and a closed pool must never restart its workers (they would be
// orphaned forever).
func (p *Pool) post(c call, lo, max int) int {
	if p.closed {
		return 0
	}
	p.ensureStarted()
	k := max
	if k > p.size {
		k = p.size
	}
	if k <= 0 {
		return 0
	}
	p.call = c
	p.pending.Store(int32(k))
	spinners := 0
	if time.Since(p.idle) < spinBudget {
		spinners = runtime.GOMAXPROCS(0) - 1
	}
	p.spinners.Store(int32(spinners))
	for i := 0; i < k; i++ {
		if p.lanes[i].slot.Swap(int64(lo+i)) == laneParked {
			// Never blocks: each park is ended by exactly one token, so the
			// buffer of one is free.
			select {
			case p.wake[i] <- struct{}{}:
			default:
			}
		}
	}
	return k
}

// claim takes back every one of the k posted lanes that no worker has
// taken yet and runs it on the calling goroutine, as a worker would. A
// dispatcher calls it once its own lane is done, so lanes posted to
// workers that are still waking never wait for them.
func (p *Pool) claim(k int) {
	for i := 0; i < k; i++ {
		ln := &p.lanes[i]
		if id := ln.slot.Load(); id > 0 && ln.slot.CompareAndSwap(id, laneEmpty) {
			p.claims.Add(1)
			p.fault.record(p.call.lane(int(id), true))
			p.retire()
		}
	}
}

// drain completes a dispatch of k posted lanes, none of them still
// claimable: it waits for the workers' — polling for spinBudget, then
// blocking — releases the pool, and returns any contained lane panic. The
// fault is harvested before unlocking so a later dispatch on this pool can
// never observe this call's.
func (p *Pool) drain(k int) *PanicError {
	if k > 0 {
		p.awaitDone()
		p.idle = time.Now()
	}
	p.call = call{}
	pe := p.fault.take()
	p.mu.Unlock()
	return pe
}

// awaitDone consumes the in-flight dispatch's done token.
func (p *Pool) awaitDone() {
	if p.spinners.Load() > 0 {
		start := time.Now()
		for polls := 1; polls%spinBatch != 0 || time.Since(start) < spinBudget; polls++ {
			select {
			case <-p.done:
				return
			default:
			}
		}
	}
	p.waiting.Store(true)
	<-p.done
	p.waiting.Store(false)
}

// Prestart spins up the parked workers without running work, so the first
// timed kernel call does not pay pool construction. Prestarting a closed
// pool is a no-op: resurrecting it would orphan the new workers.
func (p *Pool) Prestart() {
	p.mu.Lock()
	p.ensureStarted()
	p.mu.Unlock()
}

// spawnFallbacks counts dispatches that found the pool busy and ran all
// their lanes but the caller's on spawned goroutines (the seed-era path).
// A single caller keeps this flat; concurrent callers raise it by the
// dispatches that overlapped another. See Stats.
var spawnFallbacks atomic.Uint64

// SpawnFallbacks returns the cumulative count of spawned-goroutine
// fallback dispatches.
func SpawnFallbacks() uint64 { return spawnFallbacks.Load() }
