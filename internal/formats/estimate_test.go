package formats

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestEstimateTraitsAgainstBuilt cross-validates the analytic trait
// estimates against formats built on real generated matrices across a small
// feature grid. Exact for the index-arithmetic formats; banded tolerances
// for the heuristic ones.
func TestEstimateTraitsAgainstBuilt(t *testing.T) {
	grid := []core.FeatureVector{
		{MemFootprintMB: 0.5, AvgNNZPerRow: 10, SkewCoeff: 0, CrossRowSim: 0.2, AvgNumNeigh: 0.5, BWScaled: 0.3},
		{MemFootprintMB: 0.5, AvgNNZPerRow: 5, SkewCoeff: 50, CrossRowSim: 0.5, AvgNumNeigh: 1.0, BWScaled: 0.3},
		{MemFootprintMB: 1, AvgNNZPerRow: 50, SkewCoeff: 10, CrossRowSim: 0.8, AvgNumNeigh: 1.5, BWScaled: 0.6},
	}
	for gi, fv := range grid {
		p := gen.FromFeatures(fv, int64(100+gi))
		m, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		measured := core.Extract(m)
		for _, b := range Registry() {
			f, err := b.Build(m)
			if errors.Is(err, ErrBuild) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			got := f.Traits()
			est := EstimateTraits(b.Name, measured)
			if got.Balancing != est.Balancing {
				t.Errorf("grid %d %s: balancing %v, estimate %v", gi, b.Name, got.Balancing, est.Balancing)
			}
			if got.Class != est.Class || got.Class == ClassNone {
				t.Errorf("grid %d %s: kernel class %v, estimate %v", gi, b.Name, got.Class, est.Class)
			}
			// Padding ratio: exact-arithmetic formats within 15%+0.1; the
			// heuristic estimates within a factor-of-3 band.
			tight := map[string]bool{"COO": true, "Naive-CSR": true, "MKL-IE": true,
				"Merge-CSR": true, "CSR5": true}
			if tight[b.Name] {
				if math.Abs(got.PaddingRatio-est.PaddingRatio) > 0.15*got.PaddingRatio+0.1 {
					t.Errorf("grid %d %s: padding %g, estimate %g", gi, b.Name, got.PaddingRatio, est.PaddingRatio)
				}
				estMeta := est.MetaBytesPerNNZ
				if slices.Contains(csrFamily, b.Name) && m.Cols <= narrowMaxCols {
					estMeta -= 2 // the estimate prices 4-byte indices; the built family narrows them
				}
				if math.Abs(got.MetaBytesPerNNZ-estMeta) > 0.2*got.MetaBytesPerNNZ+0.5 {
					t.Errorf("grid %d %s: meta %g, estimate %g", gi, b.Name, got.MetaBytesPerNNZ, estMeta)
				}
			} else {
				lo, hi := est.PaddingRatio/3-0.4, est.PaddingRatio*3+0.4
				if got.PaddingRatio < lo || got.PaddingRatio > hi {
					t.Errorf("grid %d %s: padding %g outside band [%g,%g]", gi, b.Name, got.PaddingRatio, lo, hi)
				}
			}
		}
	}
}

func TestEstimateSkewClampedByShape(t *testing.T) {
	// A 1000-column matrix cannot hold a row longer than 1000, so the
	// effective skew clamps to cols/avg-1 = 99 even if the nominal skew is
	// 10000: HYB's estimated spill and padding are those of skew 99.
	fv := core.FeatureVector{Rows: 1000, Cols: 1000, NNZ: 10000, AvgNNZPerRow: 10, SkewCoeff: 10000}
	clamped := fv
	clamped.SkewCoeff = 99
	if tr, want := EstimateTraits("HYB", fv), EstimateTraits("HYB", clamped); tr != want {
		t.Errorf("HYB at skew 10000 = %+v, want the skew-99 estimate %+v", tr, want)
	}
	if fv.Cols = 0; EstimateTraits("HYB", fv) == EstimateTraits("HYB", clamped) {
		t.Error("without a column count the nominal skew should stand")
	}
}

func TestEstimateUnknownFormat(t *testing.T) {
	tr := EstimateTraits("mystery", core.FeatureVector{AvgNNZPerRow: 10})
	if tr.Balancing != RowGranular || tr.MetaBytesPerNNZ < 4 {
		t.Errorf("unknown format estimate not CSR-like: %+v", tr)
	}
}
