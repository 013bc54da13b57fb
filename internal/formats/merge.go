package formats

import (
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simd"
)

// MergeCSR is the Merrill-Garland merge-based CSR SpMV (SC'16): standard CSR
// storage, but the parallel kernel splits the combined (row-ends + nonzeros)
// merge path into equal diagonals, so even a single giant row is divided
// between workers. Partial sums of rows cut by a boundary are fixed up
// serially afterwards. The merge-path search runs once per placement and
// is cached, along with the carry buffers, in the execution plan.
//
// Its lanes sum sequentially, so its answer follows the lane count (a cut
// row's head and tail are two sums) but never the RHS count: it has no
// fused k-wide kernel, so a block runs by column, each vector its own
// merge-path dispatch at the call's lane count. (A fused pass over whole
// rows would be the CSR kernel, MKL-IE's.)
type MergeCSR struct {
	CSR
}

// mergeScratch is the plan-cached carry state: one slot per worker for the
// row cut by that worker's end boundary (-1 if none) and its partial sum.
type mergeScratch struct {
	row []int32
	sum []float64
}

func newMergeCSR(m *matrix.CSR) *MergeCSR {
	f := &MergeCSR{csrOf(m)}
	f.bind(f)
	return f
}

// Name implements Format.
func (f *MergeCSR) Name() string { return "Merge-CSR" }

// Traits implements Format: its k = 1 kernel is the sequential lane.
func (f *MergeCSR) Traits() Traits {
	t := f.CSR.Traits()
	t.Balancing, t.Class = ItemGranular, ClassRowSum
	return t
}

// plan cuts the merge path into equal diagonals.
func (f *MergeCSR) plan(key exec.PlanKey) *exec.Plan {
	ranges := sched.MergePath(f.rowPtr, key.Workers)
	return &exec.Plan{Ranges: ranges, Scratch: newMergeScratch(len(ranges))}
}

func newMergeScratch(lanes int) *mergeScratch {
	return &mergeScratch{row: make([]int32, lanes), sum: make([]float64, lanes)}
}

// begin implements carrier.
func (f *MergeCSR) begin(pl *exec.Plan, _ []float64, _ int, private bool) any {
	if private {
		return newMergeScratch(len(pl.Ranges))
	}
	return pl.Scratch
}

// apply is the serial sweep: the merge path's one lane, rows in
// sequential sums.
func (f *MergeCSR) apply(y, x []float64, _, lo, hi int) {
	f.seq(sched.Range{RowLo: lo, RowHi: hi, NNZLo: int64(f.rowPtr[lo]), NNZHi: int64(f.rowPtr[hi])}, y, x)
}

// lane implements carrier with the merge-path decomposition: the row cut
// by the range end is carried (-1: none).
func (f *MergeCSR) lane(c any, pl *exec.Plan, w int, y, x []float64, _ int) {
	sc := c.(*mergeScratch)
	sc.row[w] = -1
	if sum, cut := f.seq(pl.Ranges[w], y, x); cut {
		sc.row[w], sc.sum[w] = int32(pl.Ranges[w].RowHi), sum
	}
}

// seq is mergeLane over the format's index width.
func (f *MergeCSR) seq(r sched.Range, y, x []float64) (float64, bool) {
	if f.col16 != nil {
		return mergeLane(r, f.rowPtr, f.col16, f.val, x, y)
	}
	return mergeLane(r, f.rowPtr, f.colIdx, f.val, x, y)
}

// mergeLane writes the rows completed inside r as sequential sums and
// returns the sum of the trailing fragment of the row r's end cuts, if
// any. The first row may have had its head consumed by the previous lane;
// that head arrives via the previous lane's carry in the serial fixup.
func mergeLane[I simd.Index](r sched.Range, rowPtr []int32, colIdx []I, val, x, y []float64) (sum float64, cut bool) {
	k := r.NNZLo
	for i := r.RowLo; i < r.RowHi; i++ {
		end := int64(rowPtr[i+1])
		sum := 0.0
		for ; k < end; k++ {
			sum += val[k] * x[colIdx[k]]
		}
		y[i] = sum
	}
	for ; k < r.NNZHi; k++ {
		sum += val[k] * x[colIdx[k]]
		cut = true
	}
	return sum, cut
}

// finish implements carrier: add the carried row fragments onto the rows
// that were completed (or further carried) by subsequent workers.
func (f *MergeCSR) finish(c any, y []float64, _ int) {
	sc := c.(*mergeScratch)
	for w, row := range sc.row {
		if row >= 0 && int(row) < f.rows {
			y[row] += sc.sum[w]
		}
	}
}
