package formats

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// Cancellation and panic containment are properties of the driver, not of
// individual formats, so these tables run every registry format — bare and
// behind the Auto wrapper — at k = 1, a tail-only k and a full-tile k
// through the one entry point. (The Updatable wrapper lives above this
// package; internal/update runs the same table over it.)
var ctxKs = []int{1, 3, 8}

// ctxSubjects builds every registry format that accepts m, bare and wrapped
// in Auto.
func ctxSubjects(t *testing.T, label string, m *matrix.CSR) []Format {
	t.Helper()
	var out []Format
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			if errors.Is(err, ErrBuild) {
				continue
			}
			t.Fatalf("%s on %s: %v", b.Name, label, err)
		}
		out = append(out, f, NewAuto(f, AutoChoice{}))
	}
	return out
}

func nanFilled(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// wholeRange returns what f's kernel computes in one apply over its entire
// unit space, then the carry fold — the sweep with no chunks and no lanes
// — or nil when a dispatch at k is more than that (rangeOnly) or is a
// by-column block.
func wholeRange(f Format, x []float64, k int) []float64 {
	if a, ok := f.(*Auto); ok {
		f = a.Unwrap()
	}
	kern := f.(kernel)
	if !rangeOnly(f) || (k > 1 && !FusedMulti(f.Name())) {
		return nil
	}
	y, c := make([]float64, f.Rows()*k), make([]float64, kern.units()*k)
	kern.apply(y, x, c, k, 0, kern.units())
	f.(interface{ fold(y, c []float64, k int) }).fold(y, c, k)
	return y
}

// TestCtxKernelsMatchLegacy: under a live context, eight lanes claiming
// chunks off each other must produce bit-identical results to the legacy
// delegates (which run uncancellable) for every format — and to one apply
// over the whole unit space plus the carry fold: claiming may only cut
// between whole units, never change what a unit computes.
func TestCtxKernelsMatchLegacy(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // live for the duration of the test

	ms := testutil.EngineMatrices(t)
	for name, m := range degenerateMatrices() {
		ms[name] = m
	}
	for name, m := range ms {
		for _, f := range ctxSubjects(t, name, m) {
			for _, k := range ctxKs {
				x := matrix.RandomVector(m.Cols*k, int64(31+k))
				want := make([]float64, m.Rows*k)
				if k == 1 {
					f.SpMVParallel(x, want, 8)
				} else {
					f.MultiplyMany(want, x, k)
				}
				got := nanFilled(m.Rows * k)
				if err := f.Apply(ctx, got, x, k, 8); err != nil {
					t.Fatalf("%s on %s k=%d: Apply: %v", f.Name(), name, k, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s on %s k=%d: Apply slot %d = %v, want %v", f.Name(), name, k, i, got[i], want[i])
					}
				}
				if whole := wholeRange(f, x, k); whole != nil {
					for i := range got {
						if got[i] != whole[i] {
							t.Fatalf("%s on %s k=%d: Apply slot %d = %v, one whole-range apply gives %v", f.Name(), name, k, i, got[i], whole[i])
						}
					}
				}
			}
		}
	}
}

// TestCtxPreCancelledReturnsImmediately: a context cancelled before the
// call must return context.Canceled for every format without touching y.
func TestCtxPreCancelledReturnsImmediately(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for name, m := range map[string]*matrix.CSR{
		"random": matrix.Random(2000, 2000, 0.01, 3),
		"banded": matrix.Tridiagonal(2000, 2, -1), // DIA refuses the random one
	} {
		for _, f := range ctxSubjects(t, name, m) {
			for _, k := range ctxKs {
				x := matrix.RandomVector(m.Cols*k, 7)
				y := nanFilled(m.Rows * k)
				if err := f.Apply(ctx, y, x, k, 8); !errors.Is(err, context.Canceled) {
					t.Errorf("%s on %s k=%d: Apply on cancelled ctx = %v, want context.Canceled", f.Name(), name, k, err)
				}
				for i := range y {
					if !math.IsNaN(y[i]) {
						t.Errorf("%s on %s k=%d: cancelled Apply wrote y[%d]", f.Name(), name, k, i)
						break
					}
				}
			}
		}
	}
}

// TestCtxChunkingCoversAllRows drives the claim loop on one lane (workers
// forced to 1) so the chunk-boundary arithmetic itself is exercised: the
// skewed matrix carries several grains of work at every k (the banded one,
// which DIA accepts, at k > 1), so each sweep is cut into many claims, and
// every row must still be written exactly as one apply over the whole
// unit space writes it. Every call is chunked now, so that reference is
// the kernel itself; dispatches that are more than a range kernel keep
// the delegates as theirs.
func TestCtxChunkingCoversAllRows(t *testing.T) {
	prev := exec.SetMaxWorkers(1)
	defer exec.SetMaxWorkers(prev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Skewed row lengths so chunk boundaries land mid-matrix.
	rowNNZ := make([]int, 9000)
	for i := range rowNNZ {
		rowNNZ[i] = 1 + (i%7)*20
	}
	for name, m := range map[string]*matrix.CSR{
		"skewed": matrix.RandomRowSizes(len(rowNNZ), 4000, rowNNZ, 11),
		"banded": matrix.Tridiagonal(60000, 2, -1),
	} {
		if work := int64(m.NNZ()); work < 2*ctxGrain(3) {
			t.Fatalf("%s: %d work items do not span two cancellation chunks at k = 3", name, work)
		}
		for _, f := range ctxSubjects(t, name, m) {
			for _, k := range ctxKs {
				x := matrix.RandomVector(m.Cols*k, int64(13+k))
				want := wholeRange(f, x, k)
				if want == nil {
					want = make([]float64, m.Rows*k)
					if k == 1 {
						f.SpMV(x, want)
					} else {
						f.MultiplyMany(want, x, k)
					}
				}
				got := nanFilled(m.Rows * k)
				if err := f.Apply(ctx, got, x, k, 1); err != nil {
					t.Fatalf("%s on %s k=%d: Apply: %v", f.Name(), name, k, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s on %s k=%d: serial chunked slot %d = %v, want %v", f.Name(), name, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCtxWorkerPanicBecomesError: a panic on a pooled lane of any format's
// dispatch must come back from Apply as a *exec.PanicError carrying the
// fault, re-panic with that value from the legacy delegates, and leave the
// format and the engine serving the next call exactly.
func TestCtxWorkerPanicBecomesError(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)
	prevFP := failpoint.SetEnabled(true)
	defer failpoint.SetEnabled(prevFP)
	defer failpoint.Disable("exec.worker")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for name, m := range testutil.EngineMatrices(t) {
		for _, f := range ctxSubjects(t, name, m) {
			for _, k := range ctxKs {
				x := matrix.RandomVector(m.Cols*k, int64(7+k))
				want := make([]float64, m.Rows*k)
				if err := f.Apply(ctx, want, x, k, 8); err != nil {
					t.Fatalf("%s on %s k=%d: clean Apply: %v", f.Name(), name, k, err)
				}
				y := make([]float64, m.Rows*k)

				arm := func() {
					if err := failpoint.Enable("exec.worker", "panic*1"); err != nil {
						t.Fatal(err)
					}
				}
				arm()
				err := f.Apply(ctx, y, x, k, 8)
				var pe *exec.PanicError
				if !errors.As(err, &pe) || !errors.Is(err, failpoint.ErrInjected) {
					t.Fatalf("%s on %s k=%d: Apply with a faulting lane = %v, want *exec.PanicError chaining the injected fault", f.Name(), name, k, err)
				}

				arm()
				func() {
					defer func() {
						if _, ok := recover().(*exec.PanicError); !ok {
							t.Errorf("%s on %s k=%d: legacy delegate did not re-panic the *exec.PanicError", f.Name(), name, k)
						}
					}()
					if k == 1 {
						f.SpMVParallel(x, y, 8)
					} else {
						f.MultiplyMany(y, x, k)
					}
				}()

				if err := f.Apply(ctx, y, x, k, 8); err != nil {
					t.Fatalf("%s on %s k=%d: post-fault Apply: %v", f.Name(), name, k, err)
				}
				for i := range y {
					if y[i] != want[i] {
						t.Fatalf("%s on %s k=%d: post-fault slot %d = %v, want %v", f.Name(), name, k, i, y[i], want[i])
					}
				}
			}
		}
	}
}

// TestMergeCSRPlansDoNotCollide alternates single-vector and k = 8 calls
// on one eight-lane Merge-CSR instance: both run the plan and carry slots
// cached for that placement (the k = 8 call as eight by-column
// dispatches), and each must give the CSR reference.
func TestMergeCSRPlansDoNotCollide(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m := testutil.EngineMatrices(t)["longrows"]
	f, ref := newMergeCSR(m), newPreset("Naive-CSR", m)
	for round := 0; round < 3; round++ {
		for _, k := range []int{1, 8} {
			x := matrix.RandomVector(m.Cols*k, int64(50+round))
			want := make([]float64, m.Rows*k)
			if err := ref.Apply(ctx, want, x, k, 1); err != nil {
				t.Fatal(err)
			}
			got := nanFilled(m.Rows * k)
			if err := f.Apply(ctx, got, x, k, 8); err != nil {
				t.Fatalf("round %d k=%d: %v", round, k, err)
			}
			checkClose(t, "Merge-CSR alternating k", got, want, testutil.TolEngine)
		}
	}
}
