package matrix

import "fmt"

// MergeCOO returns a new CSR with the additive delta overlay applied to m:
// a cell's delta entries add onto it one after another, in delta order —
// onto the base value, or onto zero where the base has no entry — so the
// merged value is what applying the entries in sequence gives. A cell the
// delta touches whose merged value is exactly zero is dropped — that is
// how the update layer expresses deletion (it appends the exact negation
// of the current value). Base cells the delta does not touch are copied
// bit for bit, including stored zeros. m is not modified; delta is sorted
// in place first (SortStable: a pure scan when it is already sorted, as
// the update layer's logs are).
func (m *CSR) MergeCOO(delta *COO) *CSR {
	if delta.Rows != m.Rows || delta.Cols != m.Cols {
		panic(fmt.Sprintf("matrix: MergeCOO shape mismatch: delta %dx%d for %dx%d",
			delta.Rows, delta.Cols, m.Rows, m.Cols))
	}
	delta.SortStable()
	nd := delta.NNZ()
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int32, m.Rows+1),
		ColIdx: make([]int32, 0, m.NNZ()+nd),
		Val:    make([]float64, 0, m.NNZ()+nd),
	}
	d := 0
	for i := 0; i < m.Rows; i++ {
		k, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k < hi || (d < nd && int(delta.RowIdx[d]) == i) {
			if d >= nd || int(delta.RowIdx[d]) != i || (k < hi && m.ColIdx[k] < delta.ColIdx[d]) {
				// Base-only cell: copied untouched.
				out.ColIdx = append(out.ColIdx, m.ColIdx[k])
				out.Val = append(out.Val, m.Val[k])
				k++
				continue
			}
			// A touched cell: its entries add on in order, dropping an
			// exact-zero result (deletion).
			c, v := delta.ColIdx[d], 0.0
			if k < hi && m.ColIdx[k] == c {
				v = m.Val[k]
				k++
			}
			for ; d < nd && int(delta.RowIdx[d]) == i && delta.ColIdx[d] == c; d++ {
				v += delta.Val[d]
			}
			if v != 0 {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = int32(len(out.Val))
	}
	return out
}
