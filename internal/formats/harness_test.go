package formats

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// The matrix sets and references only this package's tests use; the ones
// shared with the updatable-matrix suite live in internal/testutil.

// tolSmall is the absolute tolerance for the small reference matrices:
// their row sums involve a handful of O(1) terms, so anything beyond
// accumulated rounding is a real bug.
const tolSmall = 1e-9

var maxAbsDiff = testutil.MaxAbsDiff

// anyNaN reports whether the vector contains a NaN (kernels fill y with
// NaN before a parallel run to prove every row is written).
func anyNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// checkClose fails the test when got and want differ by more than tol in
// any element, or when got contains a NaN.
func checkClose(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	if d := maxAbsDiff(got, want); d > tol || anyNaN(got) {
		t.Errorf("%s: differs from reference by %g (NaN=%v)", label, d, anyNaN(got))
	}
}

// testMatrices returns the small reference set exercising the structural
// corner cases: empty rows, dense rows, skew, banding, single row/column,
// plus one feature-controlled generated matrix.
func testMatrices(t *testing.T) map[string]*matrix.CSR {
	t.Helper()
	ms := map[string]*matrix.CSR{
		"identity":    matrix.Identity(64),
		"tridiagonal": matrix.Tridiagonal(100, 2, -1),
		"laplacian2d": matrix.Laplacian2D(12, 9),
		"random":      matrix.Random(83, 71, 0.1, 3),
		"denser":      matrix.Random(40, 40, 0.4, 4),
		"singlerow":   matrix.RandomRowSizes(1, 50, []int{20}, 5),
		"singlecol":   matrix.Random(50, 1, 0.8, 6),
		"skewed":      matrix.RandomRowSizes(60, 200, skewedSizes(60, 120), 7),
		"emptyrows":   testutil.WithEmptyRows(t),
		"tiny":        matrix.Identity(1),
	}
	g, err := gen.Generate(gen.Params{
		Rows: 500, Cols: 500, AvgNNZPerRow: 12, StdNNZPerRow: 4,
		SkewCoeff: 20, BWScaled: 0.4, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms["generated"] = g
	return ms
}

// unalignedTailMatrices returns matrices whose row lengths are
// deliberately lane-unaligned — every row length is nonzero mod 8 (and
// most are nonzero mod 4), crossing the SIMD dispatch cutoff from both
// sides — so the masked-tail paths of the 8-lane tier and the scalar
// remainders of the 4-lane tier are exercised on every row, not just the
// odd straggler.
func unalignedTailMatrices() map[string]*matrix.CSR {
	const rows = 900
	sizes := make([]int, rows)
	for i := range sizes {
		sizes[i] = 8*(i%4) + i%7 + 1 // 1..31, mod 8 in {1..7}
	}
	ms := map[string]*matrix.CSR{
		"tails": matrix.RandomRowSizes(rows, 1200, sizes, 91),
	}
	// A long-row variant: lengths straddle the 8/16-group boundaries of
	// the gather kernels (odd residues at every multiple of 8 up to 77).
	long := make([]int, 300)
	for i := range long {
		long[i] = 8*(i%9) + 2*(i%3) + 1
	}
	ms["longtails"] = matrix.RandomRowSizes(300, 700, long, 92)
	return ms
}

// degenerateMatrices are the empty and near-empty shapes every format must
// survive: no nonzeros, single entries, and empty-row runs at the edges.
func degenerateMatrices() map[string]*matrix.CSR {
	ms := map[string]*matrix.CSR{
		"empty-5x7": matrix.NewCOO(5, 7, 0).ToCSR(),
	}
	o := matrix.NewCOO(1, 1, 0)
	o.Append(0, 0, 2.5)
	ms["single-1x1"] = o.ToCSR()
	o = matrix.NewCOO(40, 40, 0)
	for _, r := range []int32{3, 19, 20, 21, 39} {
		for c := int32(0); c < 5; c++ {
			o.Append(r, (c*7+r)%40, float64(r)+0.5)
		}
	}
	ms["emptyrows"] = o.ToCSR()
	return ms
}

// skewedSizes returns a row-size profile with two dominant rows over a
// floor of singletons — the shape that stresses balancing and carries.
func skewedSizes(rows, max int) []int {
	sizes := make([]int, rows)
	for i := range sizes {
		sizes[i] = 1
	}
	sizes[0] = max
	sizes[rows/2] = max / 2
	return sizes
}

// uniformSizes returns a constant row-size profile.
func uniformSizes(rows, n int) []int {
	s := make([]int, rows)
	for i := range s {
		s[i] = n
	}
	return s
}

// denseReference computes the dense-reference product of a CSR matrix:
// the matrix expands to the dense oracle and multiplies by the triple
// loop, so no sparse-kernel code is trusted on either side of a
// comparison. Intended for the small test matrices; it allocates
// Rows*Cols floats.
func denseReference(m *matrix.CSR, x []float64) []float64 {
	dense := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			dense[i*m.Cols+int(m.ColIdx[k])] = m.Val[k]
		}
	}
	y := make([]float64, m.Rows)
	for i := range y {
		for j, v := range dense[i*m.Cols : (i+1)*m.Cols] {
			y[i] += v * x[j]
		}
	}
	return y
}

// multiplyManyWant is the specification of the fused k-vector product: k
// independent SpMV calls through the kernel's own serial path, gathered
// from / scattered to the row-major block layout.
func multiplyManyWant(f interface{ SpMV(x, y []float64) }, rows, cols int, x []float64, k int) []float64 {
	want := make([]float64, rows*k)
	xj := make([]float64, cols)
	yj := make([]float64, rows)
	for t := 0; t < k; t++ {
		for c := 0; c < cols; c++ {
			xj[c] = x[c*k+t]
		}
		f.SpMV(xj, yj)
		for r := 0; r < rows; r++ {
			want[r*k+t] = yj[r]
		}
	}
	return want
}
