package formats

import "repro/internal/matrix"

// COO stores the matrix as row-sorted coordinate triplets. It balances
// nonzeros perfectly across workers but pays 8 bytes of metadata per entry.
type COO struct {
	driver
	rows, cols int
	rowIdx     []int32
	colIdx     []int32
	val        []float64
}

// NewCOO builds the coordinate format from a CSR matrix and cuts the entry
// stream into units of carryUnit entries.
func NewCOO(m *matrix.CSR) *COO {
	o := m.ToCOO()
	f := &COO{rows: m.Rows, cols: m.Cols, rowIdx: o.RowIdx, colIdx: o.ColIdx, val: o.Val}
	f.heads = make([]int32, f.units())
	for u := range f.heads {
		f.heads[u] = -1
		if e := u * carryUnit; e > 0 && e < len(f.val) && f.rowIdx[e] == f.rowIdx[e-1] {
			f.heads[u] = f.rowIdx[e]
		}
	}
	f.bind(f)
	return f
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

// units are segments of carryUnit entries of the row-sorted stream, at
// least one: a COO without entries still zeroes y.
func (f *COO) units() int { return max((len(f.val)+carryUnit-1)/carryUnit, 1) }

// cum counts entries plus the row visits — every row of y is written —
// spread evenly over them.
func (f *COO) cum(i int) int64 {
	e := int64(min(i*carryUnit, len(f.val)))
	if e == 0 {
		return 0
	}
	return e + int64(f.rows)*e/int64(len(f.val))
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

// apply runs entry segments [lo, hi). Rows start in at most one segment:
// there they go to y, which is zeroed first over the rows its segments
// start, the empty ones between included (so a row is +0 plus its sums). A
// segment that begins inside a row sums that fragment into its carry slot.
func (f *COO) apply(y, x, c []float64, k, lo, hi int) {
	n := len(f.val)
	r0, r1 := 0, f.rows
	if e := lo * carryUnit; e > 0 {
		r0 = int(f.rowIdx[e-1]) + 1
	}
	if e := hi * carryUnit; e < n {
		r1 = int(f.rowIdx[e-1]) + 1
	}
	zero(y[r0*k : r1*k])
	for u := lo; u < hi; u++ {
		e, end := u*carryUnit, min((u+1)*carryUnit, n)
		if h := f.heads[u]; h >= 0 {
			re := e + 1
			for re < end && f.rowIdx[re] == h {
				re++
			}
			slot := c[u*k : u*k+k]
			zero(slot)
			cooRunInto(f.colIdx, f.val, x, slot, k, e, re)
			e = re
		}
		f.runs(y, x, k, e, end)
	}
}

// runs adds entries [lo, hi) into y. Entries are row-sorted, so each row
// run's sums build in registers and hit y once: at k = 1 in the same pass
// that finds the run's end, at k > 1 once per register tile.
func (f *COO) runs(y, x []float64, k, lo, hi int) {
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
