// Package testutil holds what the test suites of more than one package
// share: the engine-sized matrix set, the gate tiers, and the
// bit-equality check of dispatch equivalence. Helpers one package alone
// uses live in that package's tests.
//
// The package deliberately does NOT import internal/formats: the formats
// package's own in-package tests use this harness, so an import would
// cycle. Format names travel as strings.
package testutil

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// TolEngine is the absolute tolerance for the engine-sized matrices,
// whose longer rows accumulate more reassociation error across worker
// boundaries and register tiles.
const TolEngine = 1e-8

// Equal compares two computed products bit for bit, as the
// dispatch-equivalence tests hold every format: each kernel keeps its
// scalar loop's order at every tier (the CSR presets the canonical row
// order of simd.CSRRowRangeGo). On failure it returns the first offending
// index and false.
func Equal(got, want []float64) (int, bool) {
	for i := range got {
		if got[i] != want[i] {
			return i, false
		}
	}
	return 0, true
}

// MaxAbsDiff returns the largest elementwise absolute difference.
func MaxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// EngineMatrices returns matrices large enough that exec.Workers keeps
// multi-worker counts (the Matrices set all takes the serial fast path),
// and diverse enough to cross every kernel's special cases: skew for the
// carry logic, giant rows for the wide vectorized path, and a banded
// matrix that DIA accepts.
func EngineMatrices(t *testing.T) map[string]*matrix.CSR {
	t.Helper()
	ms := map[string]*matrix.CSR{
		"banded": matrix.Tridiagonal(20000, 2, -1),
	}
	g, err := gen.Generate(gen.Params{
		Rows: 30000, Cols: 30000, AvgNNZPerRow: 12, StdNNZPerRow: 4,
		SkewCoeff: 50, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms["generated"] = g

	// A few giant rows dominate: exercises merge-path row splitting, COO
	// whole-chunk carries, and the wide vectorized row path.
	sizes := make([]int, 1500)
	for i := range sizes {
		sizes[i] = 6
	}
	sizes[0] = 2000
	sizes[700] = 1200
	sizes[1499] = 800
	ms["longrows"] = matrix.RandomRowSizes(1500, 2500, sizes, 22)
	return ms
}

// WithEmptyRows returns a matrix whose rows 1,2 mod 3 are empty.
func WithEmptyRows(t *testing.T) *matrix.CSR {
	t.Helper()
	o := matrix.NewCOO(30, 30, 0)
	for i := 0; i < 30; i += 3 {
		o.Append(int32(i), int32(i), 2)
		o.Append(int32(i), int32((i+7)%30), -1)
	}
	return o.ToCSR()
}
