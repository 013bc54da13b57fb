package formats

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/testutil"
)

// SIMD vs scalar dispatch equivalence: every registry format must produce
// the same product at every tier, on the same built format (only the
// kernel path changes, never the layout), BIT FOR BIT. The
// accumulation-order contract (internal/simd) makes every dispatched
// kernel a drop-in for its scalar loop: the CSR presets run
// simd.CSRRowRangeGo's canonical order at every tier, the HYB, SELL-C-s,
// BCSR and fused multi kernels their scalar loops' order per output
// element.

// TestSIMDLevelEquivalence sweeps the tier cap (SetLevel) across every
// level the host clamps to, on every registry format, single- and
// multi-vector (k in {1,4,8}), over both the standard equivalence pair
// and the lane-unaligned tail matrices whose every row exercises the
// masked-tail / remainder paths. Each accelerated tier is compared
// against the scalar dispatch of the same built instance.
func TestSIMDLevelEquivalence(t *testing.T) {
	if simd.DetectedLevel() == "scalar" {
		t.Skip("no accelerated kernels on this CPU")
	}
	prevCap := simd.SetLevel("scalar")
	defer simd.SetLevel(prevCap)

	mats := SIMDEquivMatrices(t)
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

// SIMDEquivMatrices returns the dispatch-equivalence pair: a skewed
// general matrix (gather tails, SELL chunk variation, HYB spill) and an
// odd-dimension banded one (BCSR edge blocks past the column bound,
// DIA-friendly structure).
func SIMDEquivMatrices(t *testing.T) map[string]*matrix.CSR {
	t.Helper()
	skewed, err := gen.Generate(gen.Params{
		Rows: 2000, Cols: 2000, AvgNNZPerRow: 14, StdNNZPerRow: 5,
		SkewCoeff: 10, BWScaled: 0.4, CrossRowSim: 0.4, AvgNumNeigh: 1.2, Seed: 77,
	})
	if err != nil {
		t.Fatalf("generate skewed: %v", err)
	}
	banded, err := gen.Generate(gen.Params{
		Rows: 1997, Cols: 1997, AvgNNZPerRow: 9, StdNNZPerRow: 2,
		SkewCoeff: 1, BWScaled: 0.02, CrossRowSim: 0.8, AvgNumNeigh: 1.8, Seed: 78,
	})
	if err != nil {
		t.Fatalf("generate banded: %v", err)
	}
	return map[string]*matrix.CSR{"skewed": skewed, "banded": banded}
}
