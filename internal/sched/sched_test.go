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

func TestMergePathCoverage(t *testing.T) {
	m := matrix.Random(101, 50, 0.2, 3)
	for _, p := range []int{1, 2, 3, 7, 16, 200} {
		checkCoverage(t, MergePath(m.RowPtr, p), m.RowPtr)
	}
}

func TestMergePathHandlesGiantRow(t *testing.T) {
	// One row holds nearly all nonzeros: whole rows cannot split it, the
	// merge path can.
	ptr := skewedRowPtr(64, 100000)
	mp := Imbalance(MergePath(ptr, 8))
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
	ranges := MergePath(ptr, 4)
	if len(ranges) == 0 {
		t.Fatal("no ranges for empty matrix")
	}
	for _, r := range ranges {
		if r.Rows() != 0 || r.NNZ() != 0 {
			t.Errorf("empty matrix produced nonempty range %+v", r)
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

// Property: the merge path yields valid coverage on arbitrary matrices and
// diagonal counts.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(seed uint32, rowsRaw, pRaw uint8) bool {
		rows := int(rowsRaw%120) + 1
		p := int(pRaw%32) + 1
		m := matrix.Random(rows, rows, 0.15, int64(seed))
		ranges := MergePath(m.RowPtr, p)
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Imbalance returns max worker work divided by mean worker work, where work
// is the nonzero count (plus one per row to account for loop overhead).
// 1.0 is perfect balance.
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
