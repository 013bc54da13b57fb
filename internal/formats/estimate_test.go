package formats

import (
	"errors"
	"math"
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
			tight := map[string]bool{"COO": true, "Naive-CSR": true, "Vec-CSR": true,
				"Bal-CSR": true, "MKL-IE": true, "ELL": true, "Merge-CSR": true, "CSR5": true}
			if tight[b.Name] {
				if math.Abs(got.PaddingRatio-est.PaddingRatio) > 0.15*got.PaddingRatio+0.1 {
					t.Errorf("grid %d %s: padding %g, estimate %g", gi, b.Name, got.PaddingRatio, est.PaddingRatio)
				}
				if math.Abs(got.MetaBytesPerNNZ-est.MetaBytesPerNNZ) > 0.2*got.MetaBytesPerNNZ+0.5 {
					t.Errorf("grid %d %s: meta %g, estimate %g", gi, b.Name, got.MetaBytesPerNNZ, est.MetaBytesPerNNZ)
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

func TestEstimateFeasible(t *testing.T) {
	friendly := core.FeatureVector{NNZ: 1e6, Rows: 1e5, Cols: 1e5, AvgNNZPerRow: 10, SkewCoeff: 0, BWScaled: 0.0001, AvgNumNeigh: 1.9, CrossRowSim: 0.9}
	hostileELL := core.FeatureVector{NNZ: 1e8, Rows: 1e7, Cols: 1e7, AvgNNZPerRow: 10, SkewCoeff: 10000}
	if !EstimateFeasible("ELL", friendly) {
		t.Error("ELL should be feasible for a balanced matrix")
	}
	if EstimateFeasible("ELL", hostileELL) {
		t.Error("ELL should be infeasible under extreme skew at scale")
	}
	// CSR always builds, and the names priced without a host kernel (the
	// FPGA's VSL, DIA) stay feasible, so the testbeds that price them keep
	// their predictions.
	for _, name := range []string{"Naive-CSR", "VSL", "DIA"} {
		if !EstimateFeasible(name, hostileELL) {
			t.Errorf("%s should be feasible", name)
		}
	}
}

func TestEstimateSkewClampedByShape(t *testing.T) {
	// A 1000-column matrix cannot hold a row longer than 1000, so the
	// effective ELL padding clamps even if the nominal skew is 10000.
	fv := core.FeatureVector{Rows: 1000, Cols: 1000, NNZ: 10000, AvgNNZPerRow: 10, SkewCoeff: 10000}
	tr := EstimateTraits("ELL", fv)
	if tr.PaddingRatio > 99+1e-9 {
		t.Errorf("padding %g should clamp to cols/avg-1 = 99", tr.PaddingRatio)
	}
}

func TestEstimateUnknownFormat(t *testing.T) {
	tr := EstimateTraits("mystery", core.FeatureVector{AvgNNZPerRow: 10})
	if tr.Balancing != RowGranular || tr.MetaBytesPerNNZ < 4 {
		t.Errorf("unknown format estimate not CSR-like: %+v", tr)
	}
}
