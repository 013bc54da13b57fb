package formats

import (
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// COO stores the matrix as row-sorted coordinate triplets. It balances
// nonzeros perfectly across workers but pays 8 bytes of metadata per entry.
type COO struct {
	driver
	rows, cols int
	rowIdx     []int32
	colIdx     []int32
	val        []float64
	// add makes the kernels accumulate onto y instead of overwriting it:
	// the HYB spill and the update layer's delta overlay run on top of
	// another part's product.
	add bool
}

// newCOOFromParts wraps pre-built triplet arrays (used by NewCOO, the HYB
// spill part and the delta overlay).
func newCOOFromParts(rows, cols int, rowIdx, colIdx []int32, val []float64, add bool) *COO {
	f := &COO{rows: rows, cols: cols, rowIdx: rowIdx, colIdx: colIdx, val: val, add: add}
	f.bind(f)
	return f
}

// NewCOO builds the coordinate format from a CSR matrix.
func NewCOO(m *matrix.CSR) *COO {
	o := m.ToCOO()
	return newCOOFromParts(m.Rows, m.Cols, o.RowIdx, o.ColIdx, o.Val, false)
}

// Name implements Format.
func (f *COO) Name() string { return "COO" }

// Rows implements Format.
func (f *COO) Rows() int { return f.rows }

// Cols implements Format.
func (f *COO) Cols() int { return f.cols }

// NNZ implements Format.
func (f *COO) NNZ() int64 { return int64(len(f.val)) }

// Bytes implements Format: 8-byte value plus two 4-byte indices per entry.
func (f *COO) Bytes() int64 { return int64(len(f.val)) * 16 }

// Traits implements Format.
func (f *COO) Traits() Traits {
	return Traits{Balancing: NNZGranular, MetaBytesPerNNZ: 8, Class: ClassEntry}
}

// units: lanes take contiguous chunks of the row-sorted entry stream.
func (f *COO) units() int { return len(f.val) }

// cum counts entries, plus — when y is overwritten, so every row is
// visited — the row visits spread evenly over them.
func (f *COO) cum(i int) int64 {
	if f.add || i == 0 {
		return int64(i)
	}
	return int64(i) + int64(f.rows)*int64(i)/int64(len(f.val))
}

// addWorkers sizes an accumulate-mode dispatch by entry count alone,
// whatever k: each vector of a fused spill add then sees exactly the lanes
// k single-vector adds would, so its accumulation order — and rounding —
// matches theirs bit for bit.
func (f *COO) addWorkers(workers int) int {
	return exec.Workers(int64(len(f.val)), workers)
}

// cooRunInto accumulates entries [lo, hi) — all belonging to one row —
// times the k-wide x block into dst (the row's k partial sums), streaming
// the run once per 4-vector register tile.
func cooRunInto(colIdx []int32, val, x, dst []float64, k, lo, hi int) {
	t := 0
	for ; t+multiTile <= k; t += multiTile {
		var s0, s1, s2, s3 float64
		for j := lo; j < hi; j++ {
			vj := val[j]
			xb := x[int(colIdx[j])*k+t : int(colIdx[j])*k+t+4 : int(colIdx[j])*k+t+4]
			s0 += vj * xb[0]
			s1 += vj * xb[1]
			s2 += vj * xb[2]
			s3 += vj * xb[3]
		}
		dst[t] += s0
		dst[t+1] += s1
		dst[t+2] += s2
		dst[t+3] += s3
	}
	for ; t < k; t++ {
		var s float64
		for j := lo; j < hi; j++ {
			s += val[j] * x[int(colIdx[j])*k+t]
		}
		dst[t] += s
	}
}

// apply is the serial kernel over the whole entry stream (carriers are
// never sub-ranged). Entries are row-sorted, so each row run's sums build
// in registers and hit y once: at k = 1 in the same pass that finds the
// run's end, at k > 1 once per register tile.
func (f *COO) apply(y, x []float64, k, lo, hi int) {
	if !f.add {
		zero(y)
	}
	rowIdx, colIdx, val := f.rowIdx, f.colIdx, f.val
	if k == 1 {
		for e := lo; e < hi; {
			row := rowIdx[e]
			sum := 0.0
			for e < hi && rowIdx[e] == row {
				sum += val[e] * x[colIdx[e]]
				e++
			}
			y[row] += sum
		}
		return
	}
	for e := lo; e < hi; {
		row := int(rowIdx[e])
		re := e + 1
		for re < hi && int(rowIdx[re]) == row {
			re++
		}
		cooRunInto(colIdx, val, x, y[row*k:row*k+k], k, e, re)
		e = re
	}
}

// cooCarry is one deferred k-wide row contribution.
type cooCarry struct {
	row  int32
	sums []float64 // k partial sums, backed by the scratch arena
}

// cooScratch is the plan-cached carry state: per lane, the (at most two)
// boundary rows of its entry chunk with their k-wide partial sums. The
// arena is sized lanes*2*k for the largest k this plan has served and
// grows under the plan lock.
type cooScratch struct {
	carries [][]cooCarry
	arena   []float64
}

// plan gives each lane a contiguous, equal share of the entry stream.
// Streams too short to give every lane two entries run as one lane.
func (f *COO) plan(key exec.PlanKey) *exec.Plan {
	n, lanes := len(f.val), key.Workers
	if n < 2*lanes {
		lanes = 1
	}
	ranges := make([]sched.Range, lanes)
	for w := range ranges {
		ranges[w] = sched.Range{RowLo: n * w / lanes, RowHi: n * (w + 1) / lanes}
	}
	return &exec.Plan{Ranges: ranges, Scratch: &cooScratch{carries: make([][]cooCarry, lanes)}}
}

// begin implements carrier.
func (f *COO) begin(pl *exec.Plan, y []float64, k int, private bool) any {
	if !f.add {
		zero(y)
	}
	lanes := len(pl.Ranges)
	if private {
		return &cooScratch{carries: make([][]cooCarry, lanes), arena: make([]float64, lanes*2*k)}
	}
	sc := pl.Scratch.(*cooScratch)
	if len(sc.arena) < lanes*2*k {
		sc.arena = make([]float64, lanes*2*k)
	}
	return sc
}

// lane implements carrier: rows wholly inside the chunk accumulate straight
// into y; a row that may be shared with a neighbouring chunk goes to a
// carry slot instead. As in apply, k = 1 sums a run in the pass that finds
// its end.
func (f *COO) lane(c any, pl *exec.Plan, w int, y, x []float64, k int) {
	sc := c.(*cooScratch)
	rowIdx, colIdx, val := f.rowIdx, f.colIdx, f.val
	lo, hi := pl.Ranges[w].RowLo, pl.Ranges[w].RowHi
	// The only rows a neighbour can share: the one ending the previous
	// chunk and the one starting the next.
	leftRow, rightRow := int32(-1), int32(-1)
	if lo > 0 {
		leftRow = rowIdx[lo-1]
	}
	if hi < len(val) {
		rightRow = rowIdx[hi]
	}
	local := sc.carries[w][:0]
	arena := sc.arena[w*2*k : (w+1)*2*k]
	if k == 1 {
		for e := lo; e < hi; {
			row := rowIdx[e]
			sum := 0.0
			for e < hi && rowIdx[e] == row {
				sum += val[e] * x[colIdx[e]]
				e++
			}
			if row == leftRow || (e == hi && row == rightRow) {
				slot := arena[len(local) : len(local)+1]
				slot[0] = sum
				local = append(local, cooCarry{row, slot})
			} else {
				y[row] += sum
			}
		}
		sc.carries[w] = local
		return
	}
	for e := lo; e < hi; {
		row := rowIdx[e]
		re := e + 1
		for re < hi && rowIdx[re] == row {
			re++
		}
		dst := y[int(row)*k : int(row)*k+k]
		if row == leftRow || (re == hi && row == rightRow) {
			dst = arena[len(local)*k : len(local)*k+k]
			zero(dst)
			local = append(local, cooCarry{row, dst})
		}
		cooRunInto(colIdx, val, x, dst, k, e, re)
		e = re
	}
	sc.carries[w] = local
}

// finish implements carrier, merging the carries in lane order.
func (f *COO) finish(c any, y []float64, k int) {
	for _, local := range c.(*cooScratch).carries {
		for _, cr := range local {
			yb := y[int(cr.row)*k : int(cr.row)*k+k]
			for t, s := range cr.sums {
				yb[t] += s
			}
		}
	}
}
