package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(1, scale)
}

func vecAlmostEqual(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if !almostEqual(got[i], want[i], tol) {
			t.Fatalf("element %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestNewCSRValid(t *testing.T) {
	m, err := NewCSR(2, 3,
		[]int32{0, 2, 3},
		[]int32{0, 2, 1},
		[]float64{1, 2, 3})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 1 {
		t.Errorf("RowNNZ = %d,%d want 2,1", m.RowNNZ(0), m.RowNNZ(1))
	}
}

func TestNewCSRRejectsBadRowPtr(t *testing.T) {
	cases := []struct {
		name   string
		rowPtr []int32
	}{
		{"wrong length", []int32{0, 3}},
		{"nonzero start", []int32{1, 2, 3}},
		{"wrong end", []int32{0, 2, 2}},
		{"decreasing", []int32{0, 3, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCSR(2, 3, tc.rowPtr, []int32{0, 1, 2}, []float64{1, 2, 3}); err == nil {
				t.Errorf("NewCSR accepted invalid RowPtr %v", tc.rowPtr)
			}
		})
	}
}

func TestNewCSRRejectsBadColumns(t *testing.T) {
	// Out of range column.
	if _, err := NewCSR(1, 2, []int32{0, 1}, []int32{2}, []float64{1}); err == nil {
		t.Error("accepted out-of-range column")
	}
	// Negative column.
	if _, err := NewCSR(1, 2, []int32{0, 1}, []int32{-1}, []float64{1}); err == nil {
		t.Error("accepted negative column")
	}
	// Duplicate column within a row.
	if _, err := NewCSR(1, 3, []int32{0, 2}, []int32{1, 1}, []float64{1, 2}); err == nil {
		t.Error("accepted duplicate column")
	}
	// Unsorted columns within a row.
	if _, err := NewCSR(1, 3, []int32{0, 2}, []int32{2, 0}, []float64{1, 2}); err == nil {
		t.Error("accepted unsorted columns")
	}
}

func TestCSRFootprint(t *testing.T) {
	m := Identity(1000)
	want := int64(1000*12 + 1001*4)
	if got := m.FootprintBytes(); got != want {
		t.Errorf("FootprintBytes = %d, want %d", got, want)
	}
	if got := m.FootprintMB(); !almostEqual(got, float64(want)/(1<<20), 1e-12) {
		t.Errorf("FootprintMB = %g", got)
	}
}

func TestCSRSpMVIdentity(t *testing.T) {
	m := Identity(64)
	x := RandomVector(64, 1)
	y := make([]float64, 64)
	m.SpMV(x, y)
	vecAlmostEqual(t, y, x, 0)
}

func TestCSRSpMVAgainstDense(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m := Random(37, 29, 0.2, seed)
		d := m.ToDense()
		x := RandomVector(29, seed+100)
		y1 := make([]float64, 37)
		y2 := make([]float64, 37)
		m.SpMV(x, y1)
		d.SpMV(x, y2)
		vecAlmostEqual(t, y1, y2, 1e-12)
	}
}

func TestCSRSpMVShapePanics(t *testing.T) {
	m := Identity(4)
	defer func() {
		if recover() == nil {
			t.Error("SpMV with wrong x length did not panic")
		}
	}()
	m.SpMV(make([]float64, 3), make([]float64, 4))
}

func TestCSRRowStats(t *testing.T) {
	m := RandomRowSizes(4, 100, []int{1, 5, 3, 1}, 7)
	if got := m.MaxRowNNZ(); got != 5 {
		t.Errorf("MaxRowNNZ = %d, want 5", got)
	}
	if got := m.MinRowNNZ(); got != 1 {
		t.Errorf("MinRowNNZ = %d, want 1", got)
	}
	if got := m.AvgRowNNZ(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("AvgRowNNZ = %g, want 2.5", got)
	}
}

func TestCSRRowBandwidth(t *testing.T) {
	m, err := NewCSR(3, 10,
		[]int32{0, 3, 3, 4},
		[]int32{2, 5, 9, 0},
		[]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RowBandwidth(0); got != 8 {
		t.Errorf("RowBandwidth(0) = %d, want 8", got)
	}
	if got := m.RowBandwidth(1); got != 0 {
		t.Errorf("RowBandwidth(1) = %d, want 0 for empty row", got)
	}
	if got := m.RowBandwidth(2); got != 1 {
		t.Errorf("RowBandwidth(2) = %d, want 1", got)
	}
}

func TestCSRCloneIndependent(t *testing.T) {
	m := Random(10, 10, 0.3, 4)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Val[0] = 42
	if m.Val[0] == 42 {
		t.Error("clone shares value storage with original")
	}
}

func TestCSRSortRowsMergesDuplicates(t *testing.T) {
	m := &CSR{Rows: 2, Cols: 5,
		RowPtr: []int32{0, 4, 6},
		ColIdx: []int32{3, 1, 3, 0, 4, 4},
		Val:    []float64{1, 2, 10, 3, 4, 5},
	}
	merged := m.SortRows()
	if merged != 2 {
		t.Errorf("merged = %d, want 2", merged)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid after SortRows: %v", err)
	}
	d := m.ToDense()
	if d.At(0, 3) != 11 || d.At(0, 1) != 2 || d.At(0, 0) != 3 || d.At(1, 4) != 9 {
		t.Errorf("wrong merged values: %+v", d.Data)
	}
}

func TestCSRTranspose(t *testing.T) {
	m := Random(20, 15, 0.25, 9)
	tr := m.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	d := m.ToDense()
	dt := tr.ToDense()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if d.At(i, j) != dt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	m := Random(30, 30, 0.15, 10)
	tt := m.Transpose().Transpose()
	if !m.Equal(tt) {
		t.Error("transpose of transpose differs from original")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m, err := NewCSR(0, 0, []int32{0}, nil, nil)
	if err != nil {
		t.Fatalf("NewCSR empty: %v", err)
	}
	if m.NNZ() != 0 || m.AvgRowNNZ() != 0 || m.MaxRowNNZ() != 0 || m.MinRowNNZ() != 0 {
		t.Error("empty matrix stats not all zero")
	}
	m.SpMV(nil, nil) // must not panic
}

func TestMatrixWithEmptyRows(t *testing.T) {
	m, err := NewCSR(3, 3, []int32{0, 0, 1, 1}, []int32{2}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.SpMV(x, y)
	vecAlmostEqual(t, y, []float64{0, 21, 0}, 0)
}

// Property: transpose preserves nnz and swaps shape for arbitrary random
// matrices.
func TestQuickTransposeShape(t *testing.T) {
	f := func(seedRaw uint32, rowsRaw, colsRaw uint8) bool {
		rows := int(rowsRaw%40) + 1
		cols := int(colsRaw%40) + 1
		m := Random(rows, cols, 0.2, int64(seedRaw))
		tr := m.Transpose()
		return tr.Rows == cols && tr.Cols == rows && tr.NNZ() == m.NNZ() && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: SpMV is linear, A(ax+by) = a*Ax + b*Ay.
func TestQuickSpMVLinearity(t *testing.T) {
	f := func(seedRaw uint32) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := rng.Intn(30) + 2
		m := Random(n, n, 0.3, int64(seedRaw)+1)
		x1 := RandomVector(n, int64(seedRaw)+2)
		x2 := RandomVector(n, int64(seedRaw)+3)
		a, b := rng.Float64(), rng.Float64()
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = a*x1[i] + b*x2[i]
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		yc := make([]float64, n)
		m.SpMV(x1, y1)
		m.SpMV(x2, y2)
		m.SpMV(comb, yc)
		for i := range yc {
			if !almostEqual(yc[i], a*y1[i]+b*y2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWithinDotBound pins the bound to its formula, 2*n*2^-53*sum|a_ij*x_j|:
// it is scaled by the row's products, so the cancelling row that a
// result-relative 1e-12 rejects passes, one ulp of slack is not added, the
// k-wide block is indexed per vector, and an empty row, a NaN or a wrong
// element is a mismatch.
func TestWithinDotBound(t *testing.T) {
	// Row 0 cancels to ~1e-5 out of products of size 1; row 1 is empty;
	// row 2 is a single entry.
	m, err := NewCSR(3, 3, []int32{0, 3, 3, 4}, []int32{0, 1, 2, 1},
		[]float64{1, -1, 1e-5, 2})
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	x := []float64{1, 3, 1, 3, 1, 3} // vector 1 is 3x vector 0
	want := make([]float64, 3*k)
	for i := 0; i < 3; i++ {
		cols, vals := m.Row(i)
		for u := 0; u < k; u++ {
			for j, c := range cols {
				want[i*k+u] += vals[j] * x[int(c)*k+u]
			}
		}
	}
	bound0 := 2 * 3 * 0x1p-53 * (1 + 1 + 1e-5) // row 0, vector 0
	for _, tc := range []struct {
		name  string
		at    int
		delta float64
		ok    bool
	}{
		{"equal", 0, 0, true},
		{"cancelling row inside the bound", 0, 0.9 * bound0, true}, // 6e-11 of the result
		{"cancelling row past the bound", 0, 1.1 * bound0, false},
		{"vector 1 has 3x the scale", 1, 2.9 * bound0, true},
		{"vector 1 past its bound", 1, 3.1 * bound0, false},
		{"empty row must be equal", 1 * k, 1e-300, false},
		{"single entry inside 2u", 2 * k, 2 * 0x1p-53 * 2, true},
		{"NaN", 2 * k, math.NaN(), false},
	} {
		got := append([]float64(nil), want...)
		got[tc.at] += tc.delta
		i, ok := m.WithinDotBound(x, k, got, want)
		if ok != tc.ok || (!ok && i != tc.at) {
			t.Errorf("%s: WithinDotBound = (%d, %v), want (%d, %v)", tc.name, i, ok, tc.at, tc.ok)
		}
	}
}
