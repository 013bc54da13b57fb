package formats

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// setShards pins the engine shard count for a test and restores it after.
func setShards(t *testing.T, n int) {
	t.Helper()
	prev := topo.SetShards(n)
	t.Cleanup(func() { topo.SetShards(prev) })
}

// TestEngineShardedEquivalence is the gang-path correctness property: with
// several shards and a worker count wide enough that a single call must
// gang-schedule across all of them (domain-split partitions, per-shard
// worker blocks), every format still matches its serial kernel on every
// engine test matrix. Run with -race this also proves the ganged dispatch
// never shares scratch across shards.
func TestEngineShardedEquivalence(t *testing.T) {
	prev := exec.SetMaxWorkers(32)
	defer exec.SetMaxWorkers(prev)
	setShards(t, 3)
	exec.Prestart()

	for name, m := range engineTestMatrices(t) {
		x := matrix.RandomVector(m.Cols, 77)
		want := make([]float64, m.Rows)
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, ErrBuild) {
					continue
				}
				t.Fatalf("%s on %s: %v", b.Name, name, err)
			}
			f.SpMV(x, want)
			got := make([]float64, m.Rows)
			for i := range got {
				got[i] = math.NaN() // every row must be written
			}
			// Twice: the second call runs on the cached domain-split plan.
			f.SpMVParallel(x, got, 32)
			f.SpMVParallel(x, got, 32)
			if d := maxAbsDiff(got, want); d > 1e-8 || anyNaN(got) {
				t.Errorf("%s on %s ganged over 3 shards: differs from serial by %g (NaN=%v)",
					b.Name, name, d, anyNaN(got))
			}
		}
	}
}

// TestConcurrentCallersRouteToDistinctShards is the serving-path acceptance
// property: with two shards on a single-domain machine, two simultaneous
// SpMV calls on the same format instance both execute on parked pool
// workers — no spawned-goroutine fallback — and both produce the serial
// result. The rendezvous inside the kernel's worker 0 proves the calls
// overlap in time.
func TestConcurrentCallersRouteToDistinctShards(t *testing.T) {
	prev := exec.SetMaxWorkers(4)
	defer exec.SetMaxWorkers(prev)
	setShards(t, 2)
	exec.Prestart()

	m, err := gen.Generate(gen.Params{
		Rows: 30000, Cols: 30000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewCSR(m)
	x := matrix.RandomVector(m.Cols, 41)
	want := make([]float64, m.Rows)
	f.SpMV(x, want)
	// Warm both shards' plans so the measured runs do no partition work.
	ys := [2][]float64{make([]float64, m.Rows), make([]float64, m.Rows)}
	f.SpMVParallel(x, ys[0], 4)
	f.SpMVParallel(x, ys[1], 4)

	spawnsBefore := exec.SpawnFallbacks()
	var ready, wg sync.WaitGroup
	ready.Add(2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The rendezvous makes both calls hold their shard at once; a
			// single-pool engine could only serve this by spawning.
			ready.Done()
			ready.Wait()
			for iter := 0; iter < 50; iter++ {
				f.SpMVParallel(x, ys[i], 4)
			}
		}(i)
	}
	wg.Wait()
	for i := range ys {
		if d := maxAbsDiff(ys[i], want); d > 1e-8 {
			t.Errorf("concurrent caller %d diverged from serial by %g", i, d)
		}
	}
	// Routing may very occasionally race both callers onto one shard for a
	// single iteration; over 100 iterations the fallback count must stay
	// far below what a single-pool engine would show (which spawns on every
	// overlapping call).
	if d := exec.SpawnFallbacks() - spawnsBefore; d > 5 {
		t.Errorf("%d spawn fallbacks across 100 two-caller iterations, want ~0", d)
	}
}

// TestShardedSteadyStateAllocs: with two shards, the steady single-caller
// state stays at the engine's alloc budget (the one kernel closure per
// dispatch) even though round-robin routing alternates shards — each shard
// has its own cached plan and scratch.
func TestShardedSteadyStateAllocs(t *testing.T) {
	prev := exec.SetMaxWorkers(4)
	defer exec.SetMaxWorkers(prev)
	setShards(t, 2)
	exec.Prestart()

	m, err := gen.Generate(gen.Params{
		Rows: 60000, Cols: 60000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(m.Cols, 7)
	y := make([]float64, m.Rows)
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			if errors.Is(err, ErrBuild) {
				continue
			}
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Warm both shards' plans (round-robin visits each in turn).
		for i := 0; i < 4; i++ {
			f.SpMVParallel(x, y, 4)
		}
		allocs := testing.AllocsPerRun(10, func() {
			f.SpMVParallel(x, y, 4)
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs per steady-state sharded SpMVParallel, want 0", b.Name, allocs)
		}
	}
}
