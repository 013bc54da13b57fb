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
// At k > 1 it runs the fused CSR kernel over nonzero-balanced whole-row
// blocks rather than the merge path: a k-wide merge carry would cost k
// partial slots per boundary, and with every nonzero feeding k FMAs the
// imbalance a giant row causes is amortized k-fold, so row-resolution
// nonzero balancing is the better trade there.
type MergeCSR struct {
	CSR
}

// mergeScratch is the plan-cached carry state: one slot per worker for the
// row cut by that worker's end boundary (-1 if none) and its partial sum.
type mergeScratch struct {
	row []int32
	sum []float64
}

func newMergeCSR(m *matrix.CSR, t Tuning) *MergeCSR {
	f := &MergeCSR{csrOf(m, sched.NNZBalanced, t)}
	f.bind(f)
	return f
}

// Name implements Format.
func (f *MergeCSR) Name() string { return "Merge-CSR" }

// Traits implements Format.
func (f *MergeCSR) Traits() Traits {
	t := f.CSR.Traits()
	t.Balancing = ItemGranular
	return t
}

// carries implements carrier: only the single-vector merge path cuts rows.
func (f *MergeCSR) carries(k int) bool { return k == 1 }

// plan cuts the merge path at k = 1 and whole rows (the embedded policy)
// at k > 1; the driver keys the two apart.
func (f *MergeCSR) plan(key exec.PlanKey, k int) *exec.Plan {
	if k > 1 {
		return f.CSR.plan(key, k)
	}
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

// lane implements carrier with the merge-path decomposition.
func (f *MergeCSR) lane(c any, pl *exec.Plan, w int, y, x []float64, _ int) {
	if f.col16 != nil {
		mergeLane(c.(*mergeScratch), pl.Ranges[w], w, f.rowPtr, f.col16, f.val, x, y)
	} else {
		mergeLane(c.(*mergeScratch), pl.Ranges[w], w, f.rowPtr, f.colIdx, f.val, x, y)
	}
}

func mergeLane[I simd.Index](sc *mergeScratch, r sched.Range, w int, rowPtr []int32, colIdx []I, val, x, y []float64) {
	k := r.NNZLo
	// Rows completed inside the range. The first row may have had its
	// head consumed by the previous worker; that head arrives via the
	// previous worker's carry in the serial fixup below.
	for i := r.RowLo; i < r.RowHi; i++ {
		end := int64(rowPtr[i+1])
		sum := 0.0
		for ; k < end; k++ {
			sum += val[k] * x[colIdx[k]]
		}
		y[i] = sum
	}
	// Trailing fragment of the row cut by the range end.
	sc.row[w] = -1
	if k < r.NNZHi {
		sum := 0.0
		for ; k < r.NNZHi; k++ {
			sum += val[k] * x[colIdx[k]]
		}
		sc.row[w] = int32(r.RowHi)
		sc.sum[w] = sum
	}
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
