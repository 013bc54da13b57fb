// Package sched holds the merge-path decomposition (Merrill and Garland,
// SC'16) that Merge-CSR cuts its units by at build: the combined (row ends
// + nonzeros) work items split into equal diagonals, so a single row longer
// than a lane's share is still divided. Where the lanes of a call start is
// not a format's choice and is not decided here: the formats driver cuts
// every format's units at equal cumulative work, and lanes claim chunks off
// each other from there. The paper's row-block and nonzero-balanced
// disciplines survive as formats.Traits.Balancing, which the device models
// price.
package sched

// Range is a half-open span of rows, plus the span of nonzeros it covers
// (NNZLo/NNZHi are offsets into the CSR value array): one diagonal's share
// of the merge path.
type Range struct {
	RowLo, RowHi int
	NNZLo, NNZHi int64
}

// Rows returns the number of rows in the range.
func (r Range) Rows() int { return r.RowHi - r.RowLo }

// NNZ returns the number of nonzeros covered by the range.
func (r Range) NNZ() int64 { return r.NNZHi - r.NNZLo }

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
// diagonals. A range may begin or end in the middle of a row; kernels carry
// partial sums across boundaries. Ranges covering zero work items (p
// exceeding rows+nnz) are collapsed.
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
