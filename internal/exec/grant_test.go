package exec

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestAcquireFallsBackWhenAllShardsBusy: the engine must never queue — a
// dispatch finding the pool busy takes the seed-era spawn path and is
// counted.
func TestAcquireFallsBackWhenAllShardsBusy(t *testing.T) {
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
		t.Errorf("fallback run executed %d lanes, want 3", total)
	}
	if d := SpawnFallbacks() - spawnsBefore; d != 1 {
		t.Errorf("spawn fallbacks delta = %d, want 1", d)
	}
}

// TestGrantSingleRangeReleases: a grant consumed by a collapsed (n=1) run
// must still release the pool for the next caller.
func TestGrantSingleRangeReleases(t *testing.T) {
	g := Acquire(4)
	if g.pool == nil {
		t.Fatal("grant on an idle engine holds no pool")
	}
	ran := false
	g.Run(1, func(w int) { ran = w == 0 })
	if !ran {
		t.Fatal("collapsed run did not execute lane 0")
	}
	g2 := Acquire(4)
	if g2.pool == nil {
		t.Fatal("pool not released: follow-up grant spawns")
	}
	g2.Run(2, func(int) {})
}

// TestEngineRunZeroAllocsWarm: acquiring the process-wide pool must not add
// allocations to the steady-state dispatch path.
func TestEngineRunZeroAllocsWarm(t *testing.T) {
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

// TestStatsCountsDispatches: pooled dispatches increment the pool's run
// counter and accumulate busy time.
func TestStatsCountsDispatches(t *testing.T) {
	Prestart()
	before := Stats()
	for i := 0; i < 10; i++ {
		run(4, func(int) {})
	}
	after := Stats()
	if len(after.Shards) != 1 {
		t.Fatalf("stats report %d pools, want 1", len(after.Shards))
	}
	if d := after.Shards[0].Runs - before.Shards[0].Runs; d != 10 {
		t.Errorf("run counter advanced by %d, want 10", d)
	}
	if after.Shards[0].Busy < before.Shards[0].Busy {
		t.Error("busy time went backwards")
	}
}

// TestGrantReleaseFreesShard: an acquired grant abandoned without Run
// (the panic-recovery path kernels reach via defer g.Release()) must free
// the pool; Release after Run must be a harmless no-op.
func TestGrantReleaseFreesShard(t *testing.T) {
	g := Acquire(4)
	if g.pool == nil {
		t.Fatal("grant on an idle engine holds no pool")
	}
	g.Release()
	g2 := Acquire(4)
	if g2.pool == nil {
		t.Fatal("pool still locked after Release")
	}
	g2.Run(2, func(int) {})
	g2.Release() // after Run: no-op, must not unlock an idle mutex
	g3 := Acquire(4)
	if g3.pool == nil {
		t.Fatal("released-after-run pool not reacquirable")
	}
	g3.Run(2, func(int) {})
}

// TestClosedPoolIsNeverResurrected: Prestart or Run racing a Close must not
// restart a closed pool's workers — they would be orphaned forever.
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
		t.Fatalf("run on closed pool executed %d lanes, want 3", total)
	}
	if p.Size() != 0 {
		t.Fatalf("closed pool restarted by Run: %d parked workers", p.Size())
	}
}

// TestWideCallOnBusyEngineSpawnsOverflow: a call wider than the pool's
// lanes spawns the ids its workers cannot take, and a call that finds the
// pool busy spawns every id but the caller's — either way they run
// concurrently, not serially on the caller after its own lane.
func TestWideCallOnBusyEngineSpawnsOverflow(t *testing.T) {
	Prestart()
	n := Stats().Shards[0].Workers + 1 + 3 // every worker, the caller, and three more

	wide := func(what string) {
		t.Helper()
		g := Acquire(n)
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
				t.Errorf("%s: id %d ran %d times, want 1", what, w, c)
			}
		}
	}
	wide("idle pool")

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
	<-running // the pool is now busy
	wide("busy pool")
	close(release)
	bg.Wait()
}
