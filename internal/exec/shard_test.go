package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
	"repro/internal/topo"
)

// resetShards pins the engine to n shards for a test and restores the
// previous override (and engine state) on cleanup.
func resetShards(t *testing.T, n int) {
	t.Helper()
	prev := topo.SetShards(n)
	t.Cleanup(func() {
		topo.SetShards(prev)
		defaultEngine.shards() // rebuild now so later tests see a settled engine
	})
	defaultEngine.shards()
}

// TestConcurrentRunsLandOnDistinctShards is the acceptance property of the
// sharded dispatch: with two shards on a single-domain machine, two
// simultaneous SpMV-style Runs must both execute on parked pool workers —
// distinct shards, no spawned-goroutine fallback. The in-call barrier
// proves both dispatches are in flight at the same time, which the PR 1
// single pool could only serve by spawning.
func TestConcurrentRunsLandOnDistinctShards(t *testing.T) {
	resetShards(t, 2)
	Prestart()
	spawnsBefore := SpawnFallbacks()

	var ready sync.WaitGroup
	ready.Add(2)
	shardIDs := make([]int, 2)
	var counts [2][4]int32
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := Acquire(4)
			shardIDs[i] = g.ShardID()
			g.Run(4, func(w int) {
				if w == 0 {
					// Rendezvous: both calls must be running concurrently
					// before either may finish.
					ready.Done()
					ready.Wait()
				}
				atomic.AddInt32(&counts[i][w], 1)
			})
		}(i)
	}
	wg.Wait()

	for i := range counts {
		for w, c := range counts[i] {
			if c != 1 {
				t.Errorf("call %d: shard id %d ran %d times, want 1", i, w, c)
			}
		}
		if shardIDs[i] == AnyShard {
			t.Errorf("call %d did not land on a pool shard (id %d)", i, shardIDs[i])
		}
	}
	if shardIDs[0] == shardIDs[1] {
		t.Errorf("both calls landed on shard %d, want distinct shards", shardIDs[0])
	}
	if d := SpawnFallbacks() - spawnsBefore; d != 0 {
		t.Errorf("%d spawn fallbacks during concurrent dispatch, want 0", d)
	}
}

// TestGangScheduleSpansShards: a single call wider than one shard's lanes
// must enlist the other idle shards instead of running the overflow inline.
func TestGangScheduleSpansShards(t *testing.T) {
	resetShards(t, 3)
	Prestart()

	lanes := 0
	for _, s := range Stats().Shards {
		lanes += s.Workers
	}
	n := lanes + 1 // every parked worker plus the caller, no inline leftovers
	g := Acquire(n)
	if got := g.Domains(); got != 3 {
		t.Fatalf("Acquire(%d) spans %d shards, want 3", n, got)
	}
	if g.ShardID() != AnyShard {
		t.Fatalf("ganged grant reports shard %d, want AnyShard", g.ShardID())
	}
	if k := g.Key(); k.Domains != 3 || k.Workers != n || k.Shard != AnyShard {
		t.Fatalf("ganged key = %+v", k)
	}
	counts := make([]int32, n)
	g.Run(n, func(w int) { atomic.AddInt32(&counts[w], 1) })
	for w, c := range counts {
		if c != 1 {
			t.Fatalf("shard id %d ran %d times, want 1", w, c)
		}
	}
	gangs := uint64(0)
	for _, s := range Stats().Shards {
		gangs += s.GangRuns
	}
	if gangs < 3 {
		t.Errorf("gang runs recorded on %d shard participations, want >= 3", gangs)
	}
}

// TestAcquireFallsBackWhenAllShardsBusy: the engine must never queue — a
// dispatch finding every shard busy takes the seed-era spawn path and is
// counted.
func TestAcquireFallsBackWhenAllShardsBusy(t *testing.T) {
	resetShards(t, 1)
	Prestart()

	release := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(2, func(w int) {
			if w == 0 {
				close(running)
				<-release
			}
		})
	}()
	<-running
	spawnsBefore := SpawnFallbacks()
	var total int32
	run(3, func(w int) { atomic.AddInt32(&total, 1) }) // must not deadlock
	close(release)
	wg.Wait()
	if total != 3 {
		t.Errorf("fallback run executed %d shards, want 3", total)
	}
	if d := SpawnFallbacks() - spawnsBefore; d != 1 {
		t.Errorf("spawn fallbacks delta = %d, want 1", d)
	}
}

// TestEngineReshardsOnSetShards: changing the shard count rebuilds the
// engine on the next dispatch, closing the old pools.
func TestEngineReshardsOnSetShards(t *testing.T) {
	resetShards(t, 2)
	if n := len(Stats().Shards); n != 2 {
		t.Fatalf("engine has %d shards, want 2", n)
	}
	topo.SetShards(3)
	var total int32
	run(4, func(w int) { atomic.AddInt32(&total, 1) })
	if total != 4 {
		t.Fatalf("post-reshard run executed %d shards", total)
	}
	if n := len(Stats().Shards); n != 3 {
		t.Fatalf("engine has %d shards after SetShards(3), want 3", n)
	}
}

// TestGrantSingleRangeReleases: a grant consumed by a collapsed (n=1) run
// must still release its shard for the next caller.
func TestGrantSingleRangeReleases(t *testing.T) {
	resetShards(t, 1)
	g := Acquire(4)
	if g.ShardID() != 0 {
		t.Fatalf("grant on shard %d, want 0", g.ShardID())
	}
	ran := false
	g.Run(1, func(w int) { ran = w == 0 })
	if !ran {
		t.Fatal("collapsed run did not execute shard 0")
	}
	g2 := Acquire(4)
	if g2.ShardID() != 0 {
		t.Fatalf("shard not released: follow-up grant on %d", g2.ShardID())
	}
	g2.Run(2, func(int) {})
}

// TestGrantSerialKey: the spawn-fallback and sub-parallel grants report a
// single-domain AnyShard key, so all shards' fallback calls share a plan.
func TestGrantSerialKey(t *testing.T) {
	resetShards(t, 1)
	g := Grant{workers: 3, shardID: AnyShard}
	if k := g.Key(); k != (PlanKey{Shard: AnyShard, Domains: 1, Workers: 3}) {
		t.Fatalf("fallback key = %+v", k)
	}
	if g.Domains() != 1 {
		t.Fatalf("fallback Domains() = %d, want 1", g.Domains())
	}
}

// TestEngineRunZeroAllocsWarm: the sharded routing layer must not add
// allocations to the steady-state dispatch path.
func TestEngineRunZeroAllocsWarm(t *testing.T) {
	resetShards(t, 2)
	Prestart()
	var sink int64
	f := func(w int) { atomic.AddInt64(&sink, int64(w)) }
	run(4, f)
	allocs := testing.AllocsPerRun(100, func() {
		run(4, f)
	})
	if allocs > 0 {
		t.Errorf("warm engine Run allocates %v times per call, want 0", allocs)
	}
}

// TestGangRecoversFromCallerPanic: a panic on the caller's lane of a ganged
// dispatch must drain every enlisted shard before unlocking, leaving the
// engine consistent.
func TestGangRecoversFromCallerPanic(t *testing.T) {
	resetShards(t, 2)
	Prestart()
	lanes := 0
	for _, s := range Stats().Shards {
		lanes += s.Workers
	}
	n := lanes + 1
	g := Acquire(n)
	if g.Domains() != 2 {
		t.Fatalf("grant spans %d shards, want 2", g.Domains())
	}
	err := g.Run(n, func(w int) {
		if w == 0 {
			panic("caller lane boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 0 {
		t.Fatalf("Run = %v, want the caller lane's *PanicError", err)
	}
	// Both shards must be idle and consistent again.
	for i := 0; i < 20; i++ {
		counts := make([]int32, n)
		g := Acquire(n)
		g.Run(n, func(w int) { atomic.AddInt32(&counts[w], 1) })
		for w, c := range counts {
			if c != 1 {
				t.Fatalf("post-panic run %d: shard id %d ran %d times", i, w, c)
			}
		}
	}
}

// TestStatsCountsDispatches: single-shard dispatches increment exactly one
// shard's run counter and accumulate busy time.
func TestStatsCountsDispatches(t *testing.T) {
	resetShards(t, 2)
	Prestart()
	before := Stats()
	for i := 0; i < 10; i++ {
		run(4, func(int) {})
	}
	after := Stats()
	var dRuns uint64
	for i := range after.Shards {
		dRuns += after.Shards[i].Runs - before.Shards[i].Runs
		if after.Shards[i].Busy < before.Shards[i].Busy {
			t.Errorf("shard %d busy time went backwards", i)
		}
	}
	if dRuns != 10 {
		t.Errorf("run counters advanced by %d, want 10", dRuns)
	}
}

// TestGrantReleaseFreesShard: an acquired grant abandoned without Run
// (the panic-recovery path kernels reach via defer g.Release()) must free
// its shard; Release after Run must be a harmless no-op.
func TestGrantReleaseFreesShard(t *testing.T) {
	resetShards(t, 1)
	g := Acquire(4)
	if g.ShardID() != 0 {
		t.Fatalf("grant on shard %d, want 0", g.ShardID())
	}
	g.Release()
	g2 := Acquire(4)
	if g2.ShardID() != 0 {
		t.Fatal("shard still locked after Release")
	}
	g2.Run(2, func(int) {})
	g2.Release() // after Run: no-op, must not unlock an idle mutex
	g3 := Acquire(4)
	if g3.ShardID() != 0 {
		t.Fatal("released-after-run shard not reacquirable")
	}
	g3.Run(2, func(int) {})
}

// TestClosedPoolIsNeverResurrected: Prestart or Run racing a Close (as an
// engine reshard does) must not restart a closed pool's workers — they
// would be orphaned forever.
func TestClosedPoolIsNeverResurrected(t *testing.T) {
	p := NewPool(2)
	p.Prestart()
	p.Close()
	p.Prestart() // must not respawn workers
	if p.Size() != 0 {
		t.Fatalf("closed pool reports %d parked workers after Prestart", p.Size())
	}
	var total int32
	p.Run(3, func(int) { atomic.AddInt32(&total, 1) }) // spawn fallback path
	if total != 3 {
		t.Fatalf("run on closed pool executed %d shards, want 3", total)
	}
	if p.Size() != 0 {
		t.Fatalf("closed pool restarted by Run: %d parked workers", p.Size())
	}
}

// skewedRowPtr builds a CSR row-pointer array whose first row holds almost
// every nonzero, the shape that collapses sched's domain slicing.
func skewedRowPtr(rows, giant int) []int32 {
	ptr := make([]int32, rows+1)
	ptr[1] = int32(giant)
	for i := 2; i <= rows; i++ {
		ptr[i] = ptr[i-1] + 1
	}
	return ptr
}

// TestGangBlocksUsePlanOffsets is the gang-alignment regression (ROADMAP
// follow-up): under a collapsed partition the dispatch blocks must come
// from the plan's per-domain offset table, not the arithmetic
// workers*j/np split, which would shift a domain's ranges onto a
// neighboring shard.
func TestGangBlocksUsePlanOffsets(t *testing.T) {
	ptr := skewedRowPtr(12, 1_000_000)
	const np, workers = 2, 6
	ranges, off := sched.DomainSplitOff(ptr, np, workers, sched.NNZBalanced)
	n := len(ranges)
	if n >= workers {
		t.Fatalf("skew did not collapse the partition: %d ranges for %d workers", n, workers)
	}

	var blk [maxGang + 1]int
	nb := gangBlocks(np, workers, n, off, &blk)
	if nb != len(off)-1 {
		t.Fatalf("gangBlocks produced %d blocks, want %d (one per domain group)", nb, len(off)-1)
	}
	for j := 0; j < nb; j++ {
		if blk[j] != off[j] || blk[j+1] != off[j+1] {
			t.Errorf("block %d = [%d,%d), want the plan's [%d,%d)", j, blk[j], blk[j+1], off[j], off[j+1])
		}
	}

	// The arithmetic fallback must disagree on this placement — otherwise
	// the regression case has lost its teeth.
	var arith [maxGang + 1]int
	na := gangBlocks(np, workers, n, nil, &arith)
	if na != np {
		t.Fatalf("arithmetic gangBlocks produced %d blocks, want %d", na, np)
	}
	if arith[1] == blk[1] {
		t.Fatalf("arithmetic block boundary %d coincides with the plan offset; pick a harsher skew", arith[1])
	}
}

// TestRunPlanCollapsedGangCoverage: a ganged RunPlan over a collapsed,
// offset-carrying plan must still execute every range id exactly once and
// leave the engine reusable.
func TestRunPlanCollapsedGangCoverage(t *testing.T) {
	resetShards(t, 3)
	Prestart()

	lanes := 0
	for _, s := range Stats().Shards {
		lanes += s.Workers
	}
	workers := lanes + 1 // force a full gang across all three shards
	ptr := skewedRowPtr(64, 1_000_000)
	for i := 0; i < 5; i++ {
		g := Acquire(workers)
		np := g.Domains()
		ranges, off := sched.DomainSplitOff(ptr, np, workers, sched.NNZBalanced)
		pl := &Plan{Ranges: ranges, DomainOff: off}
		counts := make([]int32, len(ranges))
		g.RunPlan(pl, func(w int) { atomic.AddInt32(&counts[w], 1) })
		for w, c := range counts {
			if c != 1 {
				t.Fatalf("iteration %d: range id %d ran %d times, want 1", i, w, c)
			}
		}
	}
}

// TestWideCallOnBusyEngineSpawnsOverflow: a call wider than one shard's
// lanes that cannot gang (every other shard busy) must spawn its overflow
// ids so they run concurrently with the pooled lanes, not serially on the
// caller after its own lane.
func TestWideCallOnBusyEngineSpawnsOverflow(t *testing.T) {
	resetShards(t, 2)
	Prestart()

	release := make(chan struct{})
	running := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		g := Acquire(2)
		g.Run(2, func(w int) {
			if w == 0 {
				close(running)
				<-release
			}
		})
	}()
	<-running // exactly one shard is now busy

	lanes := Stats().Shards[0].Workers + 1
	n := lanes + 3 // forces the overflow-spawn branch
	g := Acquire(n)
	if g.Domains() != 1 {
		t.Fatalf("grant gangs %d shards while one is busy, want 1", g.Domains())
	}
	counts := make([]int32, n)
	var rendezvous sync.WaitGroup
	rendezvous.Add(n)
	g.Run(n, func(w int) {
		// Every id must be in flight at once: inline serial overflow would
		// deadlock here (and fail the test by timeout).
		rendezvous.Done()
		rendezvous.Wait()
		atomic.AddInt32(&counts[w], 1)
	})
	for w, c := range counts {
		if c != 1 {
			t.Errorf("id %d ran %d times, want 1", w, c)
		}
	}
	close(release)
	bg.Wait()
}
