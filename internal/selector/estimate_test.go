package selector

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestEstimateKeepsAutoPicks: on the benchmark's two matrices above 2¹⁹
// nonzeros, the sampled features BuildAuto reads keep the exact row-length
// fields, stay within 0.01 of the exact sampled ones, and rank the same
// shortlist at k = 1 and 8; at or below 2¹⁹ nonzeros they are the exact
// features, bit for bit.
func TestEstimateKeepsAutoPicks(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	h := fixtureHost()
	for _, rc := range []struct {
		name  string
		rows  int
		avg   float64
		dense bool
	}{
		// benchmark/workloads.go's recipes.
		{"lib-stream", 420000, 20, false},
		{"serve-batch", 3000, 1000, true},
	} {
		for _, seed := range seeds {
			p := gen.Params{Rows: rc.rows, Cols: rc.rows, AvgNNZPerRow: rc.avg, StdNNZPerRow: 0.25 * rc.avg,
				SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: seed}
			if rc.dense {
				p.BWScaled, p.SkewCoeff = 1, 0.5
			}
			m, err := gen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			est, ext := core.Estimate(m), core.Extract(m)
			if !sameRowLengths(est, ext) {
				t.Errorf("%s seed %d: row-length fields differ: estimate %v, exact %v", rc.name, seed, est, ext)
			}
			for _, f := range [][2]float64{{est.AvgNumNeigh, ext.AvgNumNeigh}, {est.CrossRowSim, ext.CrossRowSim}, {est.BWScaled, ext.BWScaled}} {
				if math.Abs(f[0]-f[1]) > 0.01 {
					t.Errorf("%s seed %d: sampled feature %g, exact %g", rc.name, seed, f[0], f[1])
				}
			}
			for _, k := range []int{1, 8} {
				if a, b := Shortlist(h, est, k, DefaultShortlist), Shortlist(h, ext, k, DefaultShortlist); !slices.Equal(a, b) {
					t.Errorf("%s seed %d k=%d: shortlist %v from the estimate, %v exact", rc.name, seed, k, a, b)
				}
			}
		}
	}
	// 2¹⁹ nonzeros: 2¹⁵ rows of 16, column gaps of 1 to 3 from a start
	// that moves every other row, so the even rows alone (a stride of 2)
	// would read other features than all of them.
	const rows, perRow = 1 << 15, 16
	rowPtr, colIdx := make([]int32, 0, rows+1), make([]int32, 0, rows*perRow)
	for i := range int32(rows) {
		rowPtr = append(rowPtr, int32(len(colIdx)))
		c := i / 2 * 977 % (rows - 64)
		for j := range int32(perRow) {
			colIdx = append(colIdx, c)
			c += 1 + (i+j)%3
		}
	}
	m, err := matrix.NewCSR(rows, rows, append(rowPtr, int32(len(colIdx))), colIdx, make([]float64, len(colIdx)))
	if err != nil {
		t.Fatal(err)
	}
	if est, ext := core.Estimate(m), core.Extract(m); m.NNZ() != 1<<19 || !sameRowLengths(est, ext) ||
		math.Float64bits(est.AvgNumNeigh) != math.Float64bits(ext.AvgNumNeigh) ||
		math.Float64bits(est.CrossRowSim) != math.Float64bits(ext.CrossRowSim) ||
		math.Float64bits(est.BWScaled) != math.Float64bits(ext.BWScaled) {
		t.Errorf("%d nonzeros: estimate %#v, exact %#v", m.NNZ(), est, ext)
	}
}

// sameRowLengths reports whether two feature vectors agree bit for bit on
// the fields read from the row pointers.
func sameRowLengths(a, b core.FeatureVector) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && a.NNZ == b.NNZ &&
		math.Float64bits(a.MemFootprintMB) == math.Float64bits(b.MemFootprintMB) &&
		math.Float64bits(a.AvgNNZPerRow) == math.Float64bits(b.AvgNNZPerRow) &&
		math.Float64bits(a.SkewCoeff) == math.Float64bits(b.SkewCoeff)
}
