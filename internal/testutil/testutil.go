// Package testutil is the shared randomized-equivalence harness used by
// the format, SIMD, multi-vector and updatable-matrix test suites: one
// set of matrix generators covering the structural corner cases, one
// dense/CSR reference to compare against, and one tolerance policy
// deciding how close "equal" has to be for each kernel family.
//
// The package deliberately does NOT import internal/formats: the formats
// package's own in-package tests use this harness, so an import would
// cycle. Kernels under test are passed through the minimal SpMVer
// interface and format names travel as strings.
package testutil

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// SpMVer is the minimal kernel surface the harness needs from a format:
// the serial reference product. Every formats.Format satisfies it.
type SpMVer interface {
	SpMV(x, y []float64)
}

// ---------------------------------------------------------------------------
// Tolerance policy
// ---------------------------------------------------------------------------

// TolSmall is the absolute tolerance for the small reference matrices:
// their row sums involve a handful of O(1) terms, so anything beyond
// accumulated rounding is a real bug.
const TolSmall = 1e-9

// TolEngine is the absolute tolerance for the engine-sized matrices,
// whose longer rows accumulate more reassociation error across worker
// boundaries and register tiles.
const TolEngine = 1e-8

// Reassoc reports whether the named format is held to the dot product's
// forward bound instead of bit equality: the Vec-CSR row dot product (and
// MKL-IE, which adopts it) reassociates into 4 scalar or 8 gather+FMA
// partial sums, and BCSR's block kernel — bit-identical on the scalar and
// AVX2 tiers — reassociates on AVX-512 (four blocks per FMA iteration), so
// it joins exactly when that implementation is the one dispatched. Every
// other kernel preserves the scalar accumulation order per output element.
func Reassoc(name string) bool {
	return name == "Vec-CSR" || name == "MKL-IE" ||
		name == "BCSR" && simd.KernelImpl("bcsr.2x2") == "avx512"
}

// EqualOrClose compares two computed products of m with the k-wide block x
// under the dispatch-equivalence policy: bit-for-bit equality, except that
// formats in the reassociation set (see Reassoc) are held to the dot
// product's forward bound, 2*n*2^-53*sum|a_ij*x_j| per element
// (matrix.CSR.WithinDotBound): scaled by the row, not by the result. On
// failure it returns the first offending index and false.
func EqualOrClose(name string, m *matrix.CSR, x []float64, k int, got, want []float64) (int, bool) {
	if Reassoc(name) {
		return m.WithinDotBound(x, k, got, want)
	}
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

// AnyNaN reports whether the vector contains a NaN (kernels fill y with
// NaN before a parallel run to prove every row is written).
func AnyNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// CheckClose fails the test when got and want differ by more than tol in
// any element, or when got contains a NaN.
func CheckClose(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	if d := MaxAbsDiff(got, want); d > tol || AnyNaN(got) {
		t.Errorf("%s: differs from reference by %g (NaN=%v)", label, d, AnyNaN(got))
	}
}

// ---------------------------------------------------------------------------
// Matrix generators
// ---------------------------------------------------------------------------

// Matrices returns the small reference set exercising the structural
// corner cases: empty rows, dense rows, skew, banding, single row/column,
// plus one feature-controlled generated matrix.
func Matrices(t *testing.T) map[string]*matrix.CSR {
	t.Helper()
	ms := map[string]*matrix.CSR{
		"identity":    matrix.Identity(64),
		"tridiagonal": matrix.Tridiagonal(100, 2, -1),
		"laplacian2d": matrix.Laplacian2D(12, 9),
		"random":      matrix.Random(83, 71, 0.1, 3),
		"denser":      matrix.Random(40, 40, 0.4, 4),
		"singlerow":   matrix.RandomRowSizes(1, 50, []int{20}, 5),
		"singlecol":   matrix.Random(50, 1, 0.8, 6),
		"skewed":      matrix.RandomRowSizes(60, 200, SkewedSizes(60, 120), 7),
		"emptyrows":   WithEmptyRows(t),
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

// UnalignedTailMatrices returns matrices whose row lengths are
// deliberately lane-unaligned — every row length is nonzero mod 8 (and
// most are nonzero mod 4), crossing the SIMD dispatch cutoff from both
// sides — so the masked-tail paths of the 8-lane tier and the scalar
// remainders of the 4-lane tier are exercised on every row, not just the
// odd straggler.
func UnalignedTailMatrices(t *testing.T) map[string]*matrix.CSR {
	t.Helper()
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

// Degenerate returns the empty and near-empty shapes every kernel must
// survive: no nonzeros, single entries, and empty-row runs at the edges.
func Degenerate() map[string]*matrix.CSR {
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

// SkewedSizes returns a row-size profile with two dominant rows over a
// floor of singletons — the shape that stresses balancing and carries.
func SkewedSizes(rows, max int) []int {
	sizes := make([]int, rows)
	for i := range sizes {
		sizes[i] = 1
	}
	sizes[0] = max
	sizes[rows/2] = max / 2
	return sizes
}

// UniformSizes returns a constant row-size profile.
func UniformSizes(rows, n int) []int {
	s := make([]int, rows)
	for i := range s {
		s[i] = n
	}
	return s
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

// ---------------------------------------------------------------------------
// References
// ---------------------------------------------------------------------------

// Reference computes the dense-reference product of a CSR matrix: the
// matrix expands to the dense oracle and multiplies by the triple loop,
// so no sparse-kernel code is trusted on either side of a comparison.
// Intended for the small test matrices; it allocates Rows*Cols floats.
func Reference(m *matrix.CSR, x []float64) []float64 {
	y := make([]float64, m.Rows)
	m.ToDense().SpMV(x, y)
	return y
}

// MultiplyManyWant is the specification of the fused k-vector product: k
// independent SpMV calls through the kernel's own serial path, gathered
// from / scattered to the row-major block layout.
func MultiplyManyWant(f SpMVer, rows, cols int, x []float64, k int) []float64 {
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
