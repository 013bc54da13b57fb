// Package sched provides the work-distribution policies that storage formats
// use to split SpMV across parallel workers, together with imbalance
// metrics. Three disciplines are implemented, mirroring the format families
// in the paper:
//
//   - RowBlocks: contiguous equal row ranges (naive CSR scheduling);
//     vulnerable to load imbalance under row-length skew.
//   - NNZBalanced: contiguous row ranges holding near-equal nonzero counts
//     (the "Balanced-CSR" / inspector-executor discipline).
//   - MergePath: the Merrill-Garland merge-based split of the combined
//     (rows + nonzeros) work items, which bounds per-worker work even when
//     single rows exceed the fair share.
package sched

import "sort"

// Range is a half-open span of rows assigned to one worker, plus the span of
// nonzeros it covers (NNZLo/NNZHi are offsets into the CSR value array).
type Range struct {
	RowLo, RowHi int
	NNZLo, NNZHi int64
}

// Rows returns the number of rows in the range.
func (r Range) Rows() int { return r.RowHi - r.RowLo }

// NNZ returns the number of nonzeros covered by the range.
func (r Range) NNZ() int64 { return r.NNZHi - r.NNZLo }

// RowBlocks splits rows into p contiguous blocks of near-equal row count.
func RowBlocks(rowPtr []int32, p int) []Range {
	rows := len(rowPtr) - 1
	if p < 1 {
		p = 1
	}
	if p > rows && rows > 0 {
		p = rows
	}
	if rows == 0 {
		return []Range{{0, 0, 0, 0}}
	}
	out := make([]Range, p)
	for w := 0; w < p; w++ {
		lo := rows * w / p
		hi := rows * (w + 1) / p
		out[w] = Range{
			RowLo: lo, RowHi: hi,
			NNZLo: int64(rowPtr[lo]), NNZHi: int64(rowPtr[hi]),
		}
	}
	return out
}

// EvenRows splits rows (or any units) into p contiguous blocks of
// near-equal count without consulting a row-pointer array: where lanes
// start claiming when the work per unit is not known up front. The NNZ
// fields count units, so Imbalance still reflects the distribution.
func EvenRows(rows, p int) []Range {
	if p < 1 {
		p = 1
	}
	if p > rows && rows > 0 {
		p = rows
	}
	if rows == 0 {
		return []Range{{0, 0, 0, 0}}
	}
	out := make([]Range, p)
	for w := 0; w < p; w++ {
		lo := rows * w / p
		hi := rows * (w + 1) / p
		out[w] = Range{RowLo: lo, RowHi: hi, NNZLo: int64(lo), NNZHi: int64(hi)}
	}
	return out
}

// NNZBalanced splits rows into p contiguous blocks with near-equal nonzero
// counts, found by binary search over the row-pointer array. A worker always
// receives whole rows, so a single huge row still lands on one worker.
// Under heavy skew fewer than p blocks may be produced: a block that would
// receive no rows (its whole fair share was swallowed by a predecessor's
// giant row) is collapsed rather than dispatched as an empty worker.
func NNZBalanced(rowPtr []int32, p int) []Range {
	rows := len(rowPtr) - 1
	if p < 1 {
		p = 1
	}
	if rows == 0 {
		return []Range{{0, 0, 0, 0}}
	}
	nnz := int64(rowPtr[rows])
	out := make([]Range, 0, p)
	prevRow := 0
	for w := 0; w < p; w++ {
		target := nnz * int64(w+1) / int64(p)
		// First row whose end passes the target.
		hi := sort.Search(rows, func(i int) bool { return int64(rowPtr[i+1]) >= target })
		hi++ // convert to exclusive row bound
		if hi > rows {
			hi = rows
		}
		if w == p-1 {
			hi = rows
		}
		if hi <= prevRow {
			continue // degenerate: no rows left for this worker
		}
		out = append(out, Range{
			RowLo: prevRow, RowHi: hi,
			NNZLo: int64(rowPtr[prevRow]), NNZHi: int64(rowPtr[hi]),
		})
		prevRow = hi
	}
	return out
}

// MergeCoord is a position on the merge path: the next row to consume and
// the next nonzero to consume.
type MergeCoord struct {
	Row int
	NNZ int64
}

// MergePathSearch locates the merge-path coordinate at the given diagonal:
// the split point where (row progress + nonzero progress) equals diagonal,
// following CUB's merge-based SpMV decomposition. rowEnd[i] = RowPtr[i+1].
func MergePathSearch(diagonal int64, rowPtr []int32, rows int) MergeCoord {
	lo := diagonal - int64(rowPtr[rows]) // minimum row progress at this diagonal
	if lo < 0 {
		lo = 0
	}
	hi := diagonal
	if hi > int64(rows) {
		hi = int64(rows)
	}
	// Binary search for the first row r in [lo, hi] such that
	// RowPtr[r+1] > diagonal - (r+1), i.e. the row list "wins" the merge.
	for lo < hi {
		mid := (lo + hi) / 2
		if int64(rowPtr[mid+1]) <= diagonal-mid-1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return MergeCoord{Row: int(lo), NNZ: diagonal - lo}
}

// MergePath splits the combined (rows + nnz) work items into p equal
// diagonals. Unlike the row-granular policies, a worker range may begin or
// end in the middle of a row; kernels carry partial sums across boundaries.
// Ranges covering zero work items (p exceeding rows+nnz) are collapsed
// rather than dispatched as empty workers.
func MergePath(rowPtr []int32, p int) []Range {
	rows := len(rowPtr) - 1
	if p < 1 {
		p = 1
	}
	if rows == 0 {
		return []Range{{0, 0, 0, 0}}
	}
	nnz := int64(rowPtr[rows])
	total := int64(rows) + nnz
	if int64(p) > total {
		p = int(total)
	}
	out := make([]Range, 0, p)
	prev := MergeCoord{}
	for w := 0; w < p; w++ {
		diag := total * int64(w+1) / int64(p)
		next := MergePathSearch(diag, rowPtr, rows)
		if next == prev {
			continue // zero-work diagonal span
		}
		out = append(out, Range{RowLo: prev.Row, RowHi: next.Row, NNZLo: prev.NNZ, NNZHi: next.NNZ})
		prev = next
	}
	return out
}
