package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/testutil"
)

// SIMD vs scalar dispatch equivalence: every registry format must produce
// the same product under both dispatch modes, on the same built format
// (only the kernel path toggles, never the layout), BIT FOR BIT. The
// accumulation-order contract (internal/simd) makes every dispatched
// kernel a drop-in for its scalar loop: the CSR presets run
// simd.CSRRowRangeGo's canonical order at every tier, the ELL, SELL-C-s,
// BCSR and fused multi kernels their scalar loops' order per output
// element. The matrix pair lives in internal/testutil, shared with the
// updatable-matrix suite.
func simdEquivMatrices(t *testing.T) map[string]*matrix.CSR {
	return testutil.SIMDEquivMatrices(t)
}

// TestSIMDScalarEquivalence runs every format's single-vector kernels
// (serial and parallel) under both dispatch modes and compares.
func TestSIMDScalarEquivalence(t *testing.T) {
	if !simd.Available() {
		t.Skip("no accelerated kernels on this host")
	}
	prev := simd.SetEnabled(true)
	defer simd.SetEnabled(prev)
	for mname, m := range simdEquivMatrices(t) {
		x := matrix.RandomVector(m.Cols, 4242)
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				continue // hostile structure for this format; covered elsewhere
			}
			ys := make([]float64, m.Rows)
			yv := make([]float64, m.Rows)
			for _, workers := range []int{1, 3} {
				simd.SetEnabled(true)
				f.SpMVParallel(x, yv, workers)
				simd.SetEnabled(false)
				f.SpMVParallel(x, ys, workers)
				simd.SetEnabled(true)
				if i, ok := testutil.Equal(yv, ys); !ok {
					t.Errorf("%s/%s workers=%d: y[%d] simd=%v scalar=%v",
						mname, b.Name, workers, i, yv[i], ys[i])
					break
				}
			}
		}
	}
}

// TestSIMDLevelEquivalence sweeps the tier cap (SetLevel) across every
// level the host clamps to, on every registry format, single- and
// multi-vector (k in {1,4,8}), over both the standard equivalence pair
// and the lane-unaligned tail matrices whose every row exercises the
// masked-tail / remainder paths. Each accelerated tier is compared
// against the scalar dispatch of the same built instance.
func TestSIMDLevelEquivalence(t *testing.T) {
	if !simd.Available() {
		t.Skip("no accelerated kernels on this host")
	}
	prevEnabled := simd.SetEnabled(true)
	defer simd.SetEnabled(prevEnabled)
	prevCap := simd.SetLevel("scalar")
	defer simd.SetLevel(prevCap)

	mats := simdEquivMatrices(t)
	for name, m := range unalignedTailMatrices() {
		mats[name] = m
	}
	for _, level := range []string{"avx2", "avx512"} {
		simd.SetLevel(level)
		if simd.Level() == "scalar" {
			continue // host can't reach any accelerated tier
		}
		for mname, m := range mats {
			x := matrix.RandomVector(m.Cols, 4242)
			for _, b := range Registry() {
				f, err := b.Build(m)
				if err != nil {
					continue
				}
				// Single-vector, serial and parallel.
				yv := make([]float64, m.Rows)
				ys := make([]float64, m.Rows)
				for _, workers := range []int{1, 3} {
					simd.SetLevel(level)
					f.SpMVParallel(x, yv, workers)
					simd.SetLevel("scalar")
					f.SpMVParallel(x, ys, workers)
					simd.SetLevel(level)
					if i, ok := testutil.Equal(yv, ys); !ok {
						t.Errorf("%s/%s/%s workers=%d: y[%d] accel=%v scalar=%v",
							level, mname, b.Name, workers, i, yv[i], ys[i])
						break
					}
				}
				// Fused multi-vector across the register-tile widths.
				for _, k := range []int{1, 4, 8} {
					xk := matrix.RandomVector(m.Cols*k, 97)
					ykv := make([]float64, m.Rows*k)
					yks := make([]float64, m.Rows*k)
					simd.SetLevel(level)
					f.MultiplyMany(ykv, xk, k)
					simd.SetLevel("scalar")
					f.MultiplyMany(yks, xk, k)
					simd.SetLevel(level)
					if i, ok := testutil.Equal(ykv, yks); !ok {
						t.Errorf("%s/%s/%s k=%d: y[%d] accel=%v scalar=%v",
							level, mname, b.Name, k, i, ykv[i], yks[i])
					}
				}
			}
		}
	}
}

// TestSIMDScalarEquivalenceMulti does the same for the k-wide fused
// kernels across the register-tile widths the dispatch layer tiles by.
func TestSIMDScalarEquivalenceMulti(t *testing.T) {
	if !simd.Available() {
		t.Skip("no accelerated kernels on this host")
	}
	prev := simd.SetEnabled(true)
	defer simd.SetEnabled(prev)
	for mname, m := range simdEquivMatrices(t) {
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				continue
			}
			for _, k := range []int{1, 4, 8} {
				x := matrix.RandomVector(m.Cols*k, 97)
				yv := make([]float64, m.Rows*k)
				ys := make([]float64, m.Rows*k)
				simd.SetEnabled(true)
				f.MultiplyMany(yv, x, k)
				simd.SetEnabled(false)
				f.MultiplyMany(ys, x, k)
				simd.SetEnabled(true)
				if i, ok := testutil.Equal(yv, ys); !ok {
					t.Errorf("%s/%s k=%d: y[%d] simd=%v scalar=%v",
						mname, b.Name, k, i, yv[i], ys[i])
				}
			}
		}
	}
}
