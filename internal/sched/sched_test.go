package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// checkCoverage asserts the ranges tile [0, rows) x [0, nnz) without gaps or
// overlaps, in order.
func checkCoverage(t *testing.T, ranges []Range, rowPtr []int32) {
	t.Helper()
	rows := len(rowPtr) - 1
	nnz := int64(rowPtr[rows])
	if len(ranges) == 0 {
		t.Fatal("no ranges")
	}
	if ranges[0].RowLo != 0 || ranges[0].NNZLo != 0 {
		t.Fatalf("first range starts at (%d,%d), want (0,0)", ranges[0].RowLo, ranges[0].NNZLo)
	}
	last := ranges[len(ranges)-1]
	if last.RowHi != rows || last.NNZHi != nnz {
		t.Fatalf("last range ends at (%d,%d), want (%d,%d)", last.RowHi, last.NNZHi, rows, nnz)
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].RowLo != ranges[i-1].RowHi || ranges[i].NNZLo != ranges[i-1].NNZHi {
			t.Fatalf("gap/overlap between range %d and %d: %+v -> %+v", i-1, i, ranges[i-1], ranges[i])
		}
	}
}

func skewedRowPtr(rows, hugeLen int) []int32 {
	// Row 0 holds hugeLen nonzeros, the rest hold 1 each.
	ptr := make([]int32, rows+1)
	ptr[1] = int32(hugeLen)
	for i := 1; i < rows; i++ {
		ptr[i+1] = ptr[i] + 1
	}
	return ptr
}

func TestRowBlocksCoverage(t *testing.T) {
	m := matrix.Random(101, 50, 0.2, 1)
	for _, p := range []int{1, 2, 3, 7, 16, 101, 500} {
		checkCoverage(t, RowBlocks(m.RowPtr, p), m.RowPtr)
	}
}

func TestNNZBalancedCoverage(t *testing.T) {
	m := matrix.Random(101, 50, 0.2, 2)
	for _, p := range []int{1, 2, 3, 7, 16, 200} {
		checkCoverage(t, NNZBalanced(m.RowPtr, p), m.RowPtr)
	}
}

func TestMergePathCoverage(t *testing.T) {
	m := matrix.Random(101, 50, 0.2, 3)
	for _, p := range []int{1, 2, 3, 7, 16, 200} {
		checkCoverage(t, MergePath(m.RowPtr, p), m.RowPtr)
	}
}

func TestRowBlocksImbalanceOnSkew(t *testing.T) {
	ptr := skewedRowPtr(64, 10000)
	rb := Imbalance(RowBlocks(ptr, 8))
	if rb < 4 {
		t.Errorf("row blocks on skewed matrix: imbalance %g, want >= 4", rb)
	}
}

func TestNNZBalancedBeatsRowBlocksOnSkew(t *testing.T) {
	// Moderate skew, no single row dominates: nnz balancing must win.
	rows := 1024
	ptr := make([]int32, rows+1)
	for i := 0; i < rows; i++ {
		n := 1
		if i < 64 {
			n = 100
		}
		ptr[i+1] = ptr[i] + int32(n)
	}
	rb := Imbalance(RowBlocks(ptr, 8))
	nb := Imbalance(NNZBalanced(ptr, 8))
	mp := Imbalance(MergePath(ptr, 8))
	if nb >= rb {
		t.Errorf("nnz-balanced imbalance %g not better than row blocks %g", nb, rb)
	}
	// The work metric counts one item per row, which nnz balancing does not
	// optimize; it stays within 2x while row blocks exceed it.
	if nb > 2 {
		t.Errorf("nnz-balanced imbalance %g, want <= 2", nb)
	}
	if mp > 1.05 {
		t.Errorf("merge path imbalance %g, want ~1 (it splits rows+nnz exactly)", mp)
	}
}

func TestMergePathHandlesGiantRow(t *testing.T) {
	// One row holds nearly all nonzeros: row-granular policies can't split
	// it, merge path can.
	ptr := skewedRowPtr(64, 100000)
	ranges := NNZBalanced(ptr, 8)
	mp := Imbalance(MergePath(ptr, 8))
	// Row granularity cannot split the giant row: one worker carries almost
	// everything, so the effective speedup over the requested 8 workers is
	// poor even though the degenerate empty ranges are collapsed.
	var total, max int64
	for _, r := range ranges {
		if r.Rows() == 0 {
			t.Errorf("empty range %+v dispatched", r)
		}
		work := r.NNZ() + int64(r.Rows())
		total += work
		if work > max {
			max = work
		}
	}
	if eff := float64(max) * 8 / float64(total); eff < 6 {
		t.Errorf("nnz-balanced should be imbalanced on a giant row, got effective imbalance %g", eff)
	}
	if mp > 1.1 {
		t.Errorf("merge path imbalance %g, want ~1", mp)
	}
}

func TestMergePathSearchEndpoints(t *testing.T) {
	ptr := []int32{0, 2, 5, 9}
	start := MergePathSearch(0, ptr, 3)
	if start.Row != 0 || start.NNZ != 0 {
		t.Errorf("diag 0 -> %+v, want origin", start)
	}
	end := MergePathSearch(int64(3)+9, ptr, 3)
	if end.Row != 3 || end.NNZ != 9 {
		t.Errorf("diag end -> %+v, want (3,9)", end)
	}
}

func TestMergePathMonotone(t *testing.T) {
	m := matrix.Random(57, 40, 0.3, 5)
	rows := m.Rows
	total := int64(rows) + int64(m.NNZ())
	prev := MergeCoord{}
	for d := int64(0); d <= total; d++ {
		c := MergePathSearch(d, m.RowPtr, rows)
		if c.Row < prev.Row || c.NNZ < prev.NNZ {
			t.Fatalf("merge path not monotone at diag %d: %+v after %+v", d, c, prev)
		}
		if int64(c.Row)+c.NNZ != d {
			t.Fatalf("diag %d: row+nnz = %d", d, int64(c.Row)+c.NNZ)
		}
		prev = c
	}
}

func TestEmptyMatrixPartitions(t *testing.T) {
	ptr := []int32{0}
	for _, f := range []func([]int32, int) []Range{RowBlocks, NNZBalanced, MergePath} {
		ranges := f(ptr, 4)
		if len(ranges) == 0 {
			t.Fatal("no ranges for empty matrix")
		}
		for _, r := range ranges {
			if r.Rows() != 0 || r.NNZ() != 0 {
				t.Errorf("empty matrix produced nonempty range %+v", r)
			}
		}
	}
}

func TestImbalanceDegenerate(t *testing.T) {
	if Imbalance(nil) != 1 {
		t.Error("Imbalance(nil) != 1")
	}
	if Imbalance([]Range{{0, 0, 0, 0}}) != 1 {
		t.Error("Imbalance of empty work != 1")
	}
}

// Property: all three policies yield valid coverage on arbitrary matrices
// and worker counts.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(seed uint32, rowsRaw, pRaw uint8) bool {
		rows := int(rowsRaw%120) + 1
		p := int(pRaw%32) + 1
		m := matrix.Random(rows, rows, 0.15, int64(seed))
		for _, policy := range []func([]int32, int) []Range{RowBlocks, NNZBalanced, MergePath} {
			ranges := policy(m.RowPtr, p)
			if ranges[0].RowLo != 0 || ranges[0].NNZLo != 0 {
				return false
			}
			last := ranges[len(ranges)-1]
			if last.RowHi != rows || last.NNZHi != int64(m.NNZ()) {
				return false
			}
			for i := 1; i < len(ranges); i++ {
				if ranges[i].RowLo != ranges[i-1].RowHi || ranges[i].NNZLo != ranges[i-1].NNZHi {
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

// Imbalance returns max worker work divided by mean worker work, where work
// is the nonzero count (plus one per row to account for loop overhead).
// 1.0 is perfect balance; the paper's skewed matrices drive this up for
// row-granular policies.
func Imbalance(ranges []Range) float64 {
	if len(ranges) == 0 {
		return 1
	}
	var total, max int64
	for _, r := range ranges {
		work := r.NNZ() + int64(r.Rows())
		total += work
		if work > max {
			max = work
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(ranges))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}
