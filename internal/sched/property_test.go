package sched

import (
	"math/rand"
	"testing"
)

// Property tests for the merge path: over a grid of adversarial row-length
// distributions and diagonal counts, it must (a) tile the (rows + nnz)
// space contiguously, (b) keep bounds monotone, (c) conserve the work, and
// (d) never produce a zero-work range when there is work to split.

// rowPtrFrom builds a CSR row-pointer array from row lengths.
func rowPtrFrom(lens []int) []int32 {
	ptr := make([]int32, len(lens)+1)
	for i, n := range lens {
		ptr[i+1] = ptr[i] + int32(n)
	}
	return ptr
}

// propertyShapes enumerates row-length distributions that have historically
// broken partitioners: uniform, head-heavy and tail-heavy skew, giant
// single rows, empty-row stretches, all-empty and single-row matrices.
func propertyShapes() map[string][]int {
	shapes := map[string][]int{
		"single-row":    {37},
		"single-empty":  {0},
		"two-rows":      {5, 3},
		"all-empty":     make([]int, 40),
		"uniform":       nil,
		"head-giant":    nil,
		"tail-giant":    nil,
		"middle-giant":  nil,
		"empty-run":     nil,
		"random-sparse": nil,
	}
	uniform := make([]int, 100)
	for i := range uniform {
		uniform[i] = 7
	}
	shapes["uniform"] = uniform

	headGiant := make([]int, 64)
	for i := range headGiant {
		headGiant[i] = 1
	}
	headGiant[0] = 100000
	shapes["head-giant"] = headGiant

	tailGiant := make([]int, 64)
	for i := range tailGiant {
		tailGiant[i] = 1
	}
	tailGiant[63] = 100000
	shapes["tail-giant"] = tailGiant

	middleGiant := make([]int, 101)
	middleGiant[50] = 50000
	shapes["middle-giant"] = middleGiant

	emptyRun := make([]int, 90)
	for i := 0; i < 30; i++ {
		emptyRun[i] = 4
		emptyRun[60+i] = 4
	}
	shapes["empty-run"] = emptyRun

	rng := rand.New(rand.NewSource(99))
	randomSparse := make([]int, 300)
	for i := range randomSparse {
		if rng.Intn(3) == 0 {
			randomSparse[i] = rng.Intn(40)
		}
	}
	shapes["random-sparse"] = randomSparse
	return shapes
}

var propertyWorkerCounts = []int{1, 2, 3, 7, 8, 64, 1000}

// TestMergePathProperties verifies the item-granular contract: contiguity
// in both coordinates, monotone growth, full coverage of the combined
// (rows + nnz) work, and no zero-work ranges.
func TestMergePathProperties(t *testing.T) {
	for shape, lens := range propertyShapes() {
		ptr := rowPtrFrom(lens)
		rows := len(ptr) - 1
		nnz := int64(ptr[rows])
		for _, p := range propertyWorkerCounts {
			ranges := MergePath(ptr, p)
			if len(ranges) == 0 {
				t.Fatalf("MergePath/%s p=%d: no ranges", shape, p)
			}
			if ranges[0].RowLo != 0 || ranges[0].NNZLo != 0 {
				t.Errorf("MergePath/%s p=%d: first range not at origin: %+v", shape, p, ranges[0])
			}
			last := ranges[len(ranges)-1]
			if rows > 0 && (last.RowHi != rows || last.NNZHi != nnz) {
				t.Errorf("MergePath/%s p=%d: last range ends at (%d,%d), want (%d,%d)",
					shape, p, last.RowHi, last.NNZHi, rows, nnz)
			}
			var work int64
			for i, r := range ranges {
				if r.RowLo > r.RowHi || r.NNZLo > r.NNZHi {
					t.Errorf("MergePath/%s p=%d: range %d not monotone: %+v", shape, p, i, r)
				}
				if i > 0 && (ranges[i-1].RowHi != r.RowLo || ranges[i-1].NNZHi != r.NNZLo) {
					t.Errorf("MergePath/%s p=%d: discontiguous at range %d", shape, p, i)
				}
				w := int64(r.Rows()) + r.NNZ()
				if rows > 0 && w == 0 {
					t.Errorf("MergePath/%s p=%d: zero-work range %d dispatched: %+v", shape, p, i, r)
				}
				work += w
			}
			if rows > 0 && work != int64(rows)+nnz {
				t.Errorf("MergePath/%s p=%d: work not conserved: %d, want %d", shape, p, work, int64(rows)+nnz)
			}
		}
	}
}
