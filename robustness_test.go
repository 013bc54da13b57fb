package spmv_test

// CI-gated robustness acceptance tests, at the facade the paper's
// serving scenario uses:
//
//   - cancellation latency (a wall-clock gate: gate_test.go, -tags gate):
//     cancelling mid-multiply on a large matrix returns context.Canceled
//     well before the uncancelled sweep would have finished (workers poll
//     at partition-chunk granularity);
//   - panic containment: an injected worker panic surfaces as an error
//     on that one call, and the engine keeps serving the same shard;
//   - journal degradation: a dying decision journal never fails a Build
//     or a multiply — selection just goes memory-only.

import (
	"context"
	"errors"
	"runtime"
	"testing"

	spmv "repro"
	"repro/internal/exec"
	"repro/internal/failpoint"
)

// forceParallel makes the engine dispatch to pool workers even on a
// single-core CI box: the worker cap rises so Acquire grants real lanes,
// and GOMAXPROCS rises so a cancelling goroutine is actually scheduled
// while kernels run (on one P it would wait out a preemption slice,
// which is harness latency, not engine latency).
func forceParallel(t *testing.T) {
	t.Helper()
	prevProcs := runtime.GOMAXPROCS(0)
	if prevProcs < 4 {
		runtime.GOMAXPROCS(4)
	}
	prevW := exec.SetMaxWorkers(8)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(prevProcs)
		exec.SetMaxWorkers(prevW)
	})
}

// bigMatrix generates a matrix large enough that a blocked multiply runs
// for tens of milliseconds — room for a mid-flight cancel to land.
func bigMatrix(t testing.TB) *spmv.Matrix {
	t.Helper()
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 200_000, Cols: 200_000,
		AvgNNZPerRow: 16, StdNNZPerRow: 4,
		SkewCoeff: 4, BWScaled: 0.3,
		CrossRowSim: 0.4, AvgNumNeigh: 1.0, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkerPanicContainmentGate is the acceptance gate for fault
// isolation: a kernel panic injected into a pool worker surfaces as an
// error on exactly that call, and the engine serves every subsequent
// call on the same shard.
func TestWorkerPanicContainmentGate(t *testing.T) {
	forceParallel(t)
	m := bigMatrix(t)
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%3) + 1
	}
	want := make([]float64, m.Rows)
	f.SpMV(x, want)

	prev := failpoint.SetEnabled(true)
	defer failpoint.SetEnabled(prev)
	if err := failpoint.Enable("exec.worker", "panic*1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("exec.worker")

	err = spmv.MultiplyCtx(context.Background(), f, y, x)
	if err == nil {
		t.Fatal("MultiplyCtx with injected worker panic returned nil")
	}
	var pe *spmv.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MultiplyCtx error = %T %v, want *spmv.PanicError", err, err)
	}
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("panic payload %v does not chain to the injected fault", err)
	}
	if failpoint.Fired("exec.worker") != 1 {
		t.Fatalf("exec.worker fired %d times, want 1", failpoint.Fired("exec.worker"))
	}

	// The poisoned call is the whole blast radius: the same format, the
	// same shard pools, immediately serve correct products.
	for call := 0; call < 20; call++ {
		if err := spmv.MultiplyCtx(context.Background(), f, y, x); err != nil {
			t.Fatalf("call %d after contained panic: %v", call, err)
		}
	}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("row %d = %v after contained panic, want %v", i, y[i], want[i])
		}
	}
}

// TestDegradedJournalNeverFailsBuildOrMultiply: selection persistence
// dying (full disk on every journal append) is invisible at the facade —
// Auto still selects, multiplies still run, and the degradation is
// visible only in the store's stats.
func TestDegradedJournalNeverFailsBuildOrMultiply(t *testing.T) {
	dir := t.TempDir()
	if err := spmv.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer spmv.UnsetCacheDir()

	prev := failpoint.SetEnabled(true)
	defer failpoint.SetEnabled(prev)
	if err := failpoint.Enable("cache.append", "enospc"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cache.append")

	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 3000, Cols: 3000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 4, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := spmv.Auto(m, spmv.AutoOptions{K: 1})
	if err != nil {
		t.Fatalf("Auto with dying journal: %v", err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	if err := spmv.MultiplyCtx(context.Background(), f, y, x); err != nil {
		t.Fatalf("Multiply with dying journal: %v", err)
	}

	st := spmv.DefaultSession().Store()
	if st == nil {
		t.Fatal("no journal attached despite SetCacheDir")
	}
	if deg, reason := st.Degraded(); !deg {
		t.Error("journal not degraded despite ENOSPC on every append")
	} else if reason == "" {
		t.Error("degradation recorded without a reason")
	}
}
