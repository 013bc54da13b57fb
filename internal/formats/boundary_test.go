package formats

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// Boundary-condition tests for the row-splitting kernels' carry logic: rows
// spanning two or more units, unit boundaries landing exactly on row
// starts, and empty-row runs at unit edges.

// giantRowMatrix has one row holding frac of all nonzeros, forcing
// worker-boundary splits inside that row for item-granular kernels.
func giantRowMatrix(rows, giantLen int, seed int64) *matrix.CSR {
	sizes := make([]int, rows)
	for i := range sizes {
		sizes[i] = 2
	}
	sizes[rows/3] = giantLen
	return matrix.RandomRowSizes(rows, giantLen*2, sizes, seed)
}

func TestMergeCSRGiantRowAcrossManyWorkers(t *testing.T) {
	m := giantRowMatrix(64, 5000, 31)
	f := newMergeCSR(m)
	x := matrix.RandomVector(m.Cols, 32)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)
	for _, workers := range []int{2, 5, 16, 63} {
		got := make([]float64, m.Rows)
		f.SpMVParallel(x, got, workers)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("workers=%d: diff %g", workers, d)
		}
	}
}

func TestCSR5GiantRowAcrossManyWorkers(t *testing.T) {
	m := giantRowMatrix(64, 5000, 33)
	f, err := NewCSR5(m)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(m.Cols, 34)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)
	for _, workers := range []int{2, 5, 16, 64} {
		got := make([]float64, m.Rows)
		f.SpMVParallel(x, got, workers)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("workers=%d: diff %g", workers, d)
		}
	}
}

func TestCOOGiantRowAcrossManyWorkers(t *testing.T) {
	m := giantRowMatrix(64, 5000, 35)
	f := NewCOO(m)
	x := matrix.RandomVector(m.Cols, 36)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)
	for _, workers := range []int{2, 7, 32} {
		got := make([]float64, m.Rows)
		f.SpMVParallel(x, got, workers)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("workers=%d: diff %g", workers, d)
		}
	}
}

func TestCSR5TileBoundaryAlignment(t *testing.T) {
	// Matrices whose nnz is exactly, one less and one more than a multiple
	// of the tile size exercise the padding lanes of the last tile.
	for _, nnz := range []int{tileN - 1, tileN, tileN + 1, 3*tileN - 1, 3 * tileN} {
		sizes := make([]int, nnz) // one nonzero per row keeps counts exact
		for i := range sizes {
			sizes[i] = 1
		}
		m := matrix.RandomRowSizes(nnz, 64, sizes, int64(nnz))
		f, err := NewCSR5(m)
		if err != nil {
			t.Fatal(err)
		}
		x := matrix.RandomVector(m.Cols, 40)
		want := make([]float64, m.Rows)
		got := make([]float64, m.Rows)
		m.SpMV(x, want)
		f.SpMV(x, got)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("nnz=%d: serial diff %g", nnz, d)
		}
		f.SpMVParallel(x, got, 3)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("nnz=%d: parallel diff %g", nnz, d)
		}
	}
}

func TestCSR5EmptyRowRuns(t *testing.T) {
	// Long runs of empty rows between populated ones stress the segment
	// table (empty rows own no segment).
	o := matrix.NewCOO(500, 500, 0)
	for _, r := range []int32{0, 99, 100, 101, 499} {
		for c := int32(0); c < 30; c++ {
			o.Append(r, (c*17+r)%500, float64(r+1))
		}
	}
	m := o.ToCSR()
	f, err := NewCSR5(m)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(500, 41)
	want := make([]float64, 500)
	got := make([]float64, 500)
	m.SpMV(x, want)
	for _, workers := range []int{1, 2, 3} {
		f.SpMVParallel(x, got, workers)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("workers=%d: diff %g", workers, d)
		}
	}
}

func TestSELLCSLastChunkPartial(t *testing.T) {
	// Row counts that are not multiples of the chunk size leave a partial
	// final chunk whose missing lanes must stay silent.
	for _, rows := range []int{1, 7, 8, 9, 17} {
		m := matrix.Random(rows, 50, 0.3, int64(rows)+50)
		f, err := newSELLCS(m, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		x := matrix.RandomVector(50, 42)
		want := make([]float64, rows)
		got := make([]float64, rows)
		m.SpMV(x, want)
		f.SpMV(x, got)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("rows=%d: diff %g", rows, d)
		}
	}
}

func TestSELLCSPermutationIsBijective(t *testing.T) {
	m := matrix.RandomRowSizes(100, 200, skewedSizes(100, 50), 43)
	f, err := newSELLCS(m, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, m.Rows)
	for _, p := range f.perm {
		if seen[p] {
			t.Fatalf("row %d appears twice in the permutation", p)
		}
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("row %d missing from the permutation", i)
		}
	}
}

func TestHYBAllSpillAndNoSpill(t *testing.T) {
	m := matrix.Random(60, 60, 0.2, 46)
	x := matrix.RandomVector(60, 47)
	want := make([]float64, 60)
	m.SpMV(x, want)
	// Threshold larger than every row: pure ELL, empty spill.
	fAll, err := newHYBThreshold(m, m.MaxRowNNZ())
	if err != nil {
		t.Fatal(err)
	}
	if len(fAll.spillVal) != 0 {
		t.Errorf("spill = %d, want 0 at threshold=max", len(fAll.spillVal))
	}
	got := make([]float64, 60)
	fAll.SpMVParallel(x, got, 4)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("no-spill diff %g", d)
	}
	// Threshold 0: pure COO.
	fNone, err := newHYBThreshold(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	fNone.SpMVParallel(x, got, 4)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("all-spill diff %g", d)
	}
}

// Property: for arbitrary random matrices and worker counts, the three
// carry-based kernels (COO, Merge-CSR, CSR5) agree with the reference.
func TestQuickCarryKernels(t *testing.T) {
	f := func(seed uint32, rowsRaw, workersRaw uint8) bool {
		rows := int(rowsRaw%80) + 2
		workers := int(workersRaw%12) + 1
		m := matrix.Random(rows, rows, 0.15, int64(seed))
		x := matrix.RandomVector(rows, int64(seed)+1)
		want := make([]float64, rows)
		m.SpMV(x, want)

		coo := NewCOO(m)
		merge := newMergeCSR(m)
		csr5, err := NewCSR5(m)
		if err != nil {
			return false
		}
		for _, k := range []Format{coo, merge, csr5} {
			got := make([]float64, rows)
			k.SpMVParallel(x, got, workers)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Bytes() is consistent with Traits().MetaBytesPerNNZ for every
// format: Bytes = nnz*(8 + meta) within rounding.
func TestQuickBytesTraitsConsistency(t *testing.T) {
	f := func(seed uint32) bool {
		m := matrix.Random(50, 50, 0.2, int64(seed))
		if m.NNZ() == 0 {
			return true
		}
		for _, b := range Registry() {
			fm, err := b.Build(m)
			if err != nil {
				continue
			}
			meta := fm.Traits().MetaBytesPerNNZ
			implied := float64(fm.NNZ())*(8+meta) - float64(fm.Bytes())
			// ELL-family estimates fold padding into meta; allow 15%.
			if math.Abs(implied) > 0.15*float64(fm.Bytes())+64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCarryUnitEdges runs the row-splitting formats, and HYB, whose rows
// carry a spill, on rows laid against the carryUnit cuts — a unit that
// starts exactly at a row start, one that starts and ends inside one row,
// runs of empty rows on both sides of a cut, and a matrix ending in empty
// rows — on 1, 2 and 7 lanes at k = 1 and 3 into NaN-filled vectors:
// every row is written, within the forward bound of the CSR reference, and
// every lane count gives the 1-lane bits.
// Then every two adjacent units run on two goroutines, so that under
// -race a unit that touches a row or slot its neighbour owns fails.
func TestCarryUnitEdges(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(7))
	lens := []int{carryUnit, 0, 0, carryUnit - 1, 1, 3 * carryUnit, 0, 5, carryUnit - 5, 0,
		2*carryUnit + 7, 1, 0, 0, carryUnit/2 - 8, 9000, 0, 0}
	rows := 200
	sizes := make([]int, rows)
	copy(sizes, lens)
	for i := len(lens); i < rows; i++ {
		sizes[i] = []int{0, 40, 0, 0, 17}[i%5]
	}
	sizes[rows-1], sizes[rows-2] = 0, 0
	m := matrix.RandomRowSizes(rows, 9000, sizes, 61)
	for _, b := range []string{"COO", "HYB", "Merge-CSR", "CSR5"} {
		bld, _ := Lookup(b)
		f, err := bld.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3} {
			x := matrix.RandomVector(m.Cols*k, int64(62+k))
			want := multiplyManyWant(m, m.Rows, m.Cols, x, k)
			var one []float64
			for _, workers := range []int{1, 2, 7} {
				y := nanFilled(m.Rows * k)
				if err := f.Apply(context.Background(), y, x, k, workers); err != nil {
					t.Fatal(err)
				}
				if i, ok := m.WithinDotBound(x, k, y, want); !ok {
					t.Fatalf("%s k=%d workers=%d: y[%d] = %v, the CSR reference's %v", b, k, workers, i, y[i], want[i])
				}
				if one == nil {
					one = y
				}
				for i := range y {
					if math.Float64bits(y[i]) != math.Float64bits(one[i]) {
						t.Fatalf("%s k=%d workers=%d: y[%d] = %v, %v on one lane", b, k, workers, i, y[i], one[i])
					}
				}
			}
		}
		kern := f.(kernel)
		x, y, c := matrix.RandomVector(m.Cols, 64), make([]float64, m.Rows), make([]float64, kern.units())
		for u := 1; u < kern.units(); u++ {
			var wg sync.WaitGroup
			for _, v := range []int{u - 1, u} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					kern.apply(y, x, c, 1, v, v+1)
				}()
			}
			wg.Wait()
		}
	}
}
