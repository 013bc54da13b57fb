package formats

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// engineTestMatrices are large enough that exec.Workers keeps multi-worker
// counts (the small matrices of formats_test.go all take the serial fast
// path now), and diverse enough to cross every kernel's special cases:
// skew for the carry logic, a >=vecWideRowMin row for the wide unrolled
// path, and a banded matrix that DIA accepts (testutil.EngineMatrices).
func engineTestMatrices(t *testing.T) map[string]*matrix.CSR {
	return testutil.EngineMatrices(t)
}

// TestEngineSerialParallelEquivalence is the engine-level correctness
// property: under a raised worker cap (so the pool genuinely runs multi-
// worker even on small machines), SpMVParallel must match SpMV for every
// registry format at several worker counts, within FP-reassociation
// tolerance. Run with -race this also exercises the lane frame sharing.
func TestEngineSerialParallelEquivalence(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)

	counts := []int{1, 3, runtime.NumCPU()}
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
			for _, workers := range counts {
				got := make([]float64, m.Rows)
				for i := range got {
					got[i] = math.NaN() // every row must be written
				}
				// Twice: the second call runs on the cached plan.
				f.SpMVParallel(x, got, workers)
				f.SpMVParallel(x, got, workers)
				if d := maxAbsDiff(got, want); d > 1e-8 || anyNaN(got) {
					t.Errorf("%s on %s with %d workers: differs from serial by %g (NaN=%v)",
						b.Name, name, workers, d, anyNaN(got))
				}
			}
		}
	}
}

// TestSpMVParallelAllocs is the steady-state acceptance gate: after the
// first call warms the plan cache and the pool, a parallel or serial SpMV
// performs no partition recomputation, no goroutine spawns and no
// allocation (the lanes read their arguments and carry slots from the
// plan's reusable frame).
func TestSpMVParallelAllocs(t *testing.T) {
	prev := exec.SetMaxWorkers(4)
	defer exec.SetMaxWorkers(prev)
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			if errors.Is(err, ErrBuild) {
				continue
			}
			t.Fatalf("%s: %v", b.Name, err)
		}
		f.SpMVParallel(x, y, 4) // warm plan cache and pool
		f.SpMVParallel(x, y, 4)
		allocs := testing.AllocsPerRun(10, func() {
			f.SpMVParallel(x, y, 4)
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs per steady-state SpMVParallel, want 0", b.Name, allocs)
		}
		f.SpMV(x, y)
		if allocs := testing.AllocsPerRun(10, func() { f.SpMV(x, y) }); allocs > 0 {
			t.Errorf("%s: %v allocs per steady-state SpMV, want 0", b.Name, allocs)
		}
		// A cancellable context costs its Ctl and nothing else.
		allocs = testing.AllocsPerRun(10, func() {
			if err := f.Apply(ctx, y, x, 1, 4); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %v allocs per steady-state Apply under a cancellable context, want at most 1", b.Name, allocs)
		}
	}
}

// TestParallelApplyAllocsOnTwoCPUs counts a parallel Apply's allocations
// from runtime.MemStats with two Ps and no worker-cap override — the
// configuration a caller runs in. testing.AllocsPerRun cannot: it sets
// GOMAXPROCS to 1 for the measurement, where exec.Workers picks the serial
// path unless a test has raised the cap. Every registry format runs, the
// ones that split rows with their carry slots in the lane frame.
func TestParallelApplyAllocsOnTwoCPUs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(0))

	m, err := gen.Generate(gen.Params{
		Rows: 20000, Cols: 20000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(m.Cols, 7)
	y := make([]float64, m.Rows)
	for _, b := range Registry() {
		name := b.Name
		f, err := b.Build(m)
		if errors.Is(err, ErrBuild) {
			continue
		} else if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if exec.Workers(int64(m.NNZ()), 2) != 2 {
			t.Fatalf("%s: the matrix does not reach the parallel path", name)
		}
		const runs = 200
		var before, after runtime.MemStats
		for i := 0; i < 4; i++ {
			f.SpMVParallel(x, y, 2) // warm the plan cache and the pool
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f.SpMVParallel(x, y, 2)
		}
		runtime.ReadMemStats(&after)
		// The count is process-wide, so leave room for the runtime's own
		// background allocations; one per call would be 200.
		if d := after.Mallocs - before.Mallocs; d > runs/10 {
			t.Errorf("%s: %d allocations over %d parallel calls, want none", name, d, runs)
		}
	}
}

// TestConcurrentSameInstanceCalls drives the contention path: several
// goroutines issue SpMVParallel on one format instance with distinct output
// vectors. Calls that lose the plan's TryLock must fall back to a private
// frame and still produce the serial result; with -race this also proves
// the cached frame and its carry slots are never shared across in-flight
// calls.
func TestConcurrentSameInstanceCalls(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)

	m, err := gen.Generate(gen.Params{
		Rows: 20000, Cols: 20000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 20, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(m.Cols, 41)
	want := make([]float64, m.Rows)
	// The formats that split rows, whose frames carry slots.
	for _, name := range []string{"COO", "Merge-CSR", "CSR5", "HYB"} {
		b, _ := Lookup(name)
		f, err := b.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f.SpMV(x, want)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				y := make([]float64, m.Rows)
				for i := 0; i < 10; i++ {
					f.SpMVParallel(x, y, 4)
					if d := maxAbsDiff(y, want); d > 1e-8 {
						errs <- name
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Errorf("%s: concurrent SpMVParallel diverged from serial", name)
		}
	}
}

// TestPlanCachePopulatesPerWorkerCount checks plans are keyed by worker
// count and reused, via the exported cache length of a representative
// format.
func TestPlanCachePopulatesPerWorkerCount(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)

	m := matrix.Tridiagonal(30000, 2, -1)
	f := newPreset("Naive-CSR", m)
	x := matrix.RandomVector(m.Cols, 3)
	y := make([]float64, m.Rows)
	for i := 0; i < 3; i++ {
		f.SpMVParallel(x, y, 3)
	}
	if n := f.plans.Len(); n != 1 {
		t.Errorf("after repeated 3-worker calls: %d plans cached, want 1", n)
	}
	f.SpMVParallel(x, y, 5)
	if n := f.plans.Len(); n != 2 {
		t.Errorf("after a 5-worker call: %d plans cached, want 2", n)
	}
	f.SpMVParallel(x, y, 1) // serial fast path must not touch the cache
	if n := f.plans.Len(); n != 2 {
		t.Errorf("after a serial call: %d plans cached, want 2", n)
	}
}
