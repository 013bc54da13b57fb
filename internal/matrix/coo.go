package matrix

import (
	"fmt"
	"sort"
)

// COO is a sparse matrix in coordinate (triplet) format: entry k lives at
// (RowIdx[k], ColIdx[k]) with value Val[k]. Entries may be in any order and
// may contain duplicates until Compact is called.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []float64
}

// NewCOO returns an empty COO matrix with capacity for nnz entries.
func NewCOO(rows, cols, nnz int) *COO {
	return &COO{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, 0, nnz),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// NNZ returns the number of stored entries, counting duplicates.
func (m *COO) NNZ() int { return len(m.Val) }

// Append adds one entry. It panics if the coordinates are out of range,
// since that is a programmer error at assembly time.
func (m *COO) Append(r, c int32, v float64) {
	if r < 0 || int(r) >= m.Rows || c < 0 || int(c) >= m.Cols {
		panic(fmt.Sprintf("matrix: COO entry (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
	m.RowIdx = append(m.RowIdx, r)
	m.ColIdx = append(m.ColIdx, c)
	m.Val = append(m.Val, v)
}

// Compact sorts entries into row-major order and merges duplicates by
// addition, each cell's in append order, so it is deterministic bit for
// bit. It returns the number of merged duplicates.
func (m *COO) Compact() int {
	m.SortStable()
	w := 0
	for i := range m.Val {
		if w > 0 && m.RowIdx[w-1] == m.RowIdx[i] && m.ColIdx[w-1] == m.ColIdx[i] {
			m.Val[w-1] += m.Val[i]
			continue
		}
		m.RowIdx[w], m.ColIdx[w], m.Val[w] = m.RowIdx[i], m.ColIdx[i], m.Val[i]
		w++
	}
	merged := len(m.Val) - w
	m.RowIdx, m.ColIdx, m.Val = m.RowIdx[:w], m.ColIdx[:w], m.Val[:w]
	return merged
}

// SortStable sorts the entries into row-major order, each cell's
// duplicates in append order; a sorted matrix costs one scan.
func (m *COO) SortStable() {
	if o := (cooOrder{m}); !sort.IsSorted(o) {
		sort.Stable(o)
	}
}

// cooOrder orders a COO's entries by (row, col) for package sort.
type cooOrder struct{ m *COO }

func (o cooOrder) Len() int { return len(o.m.Val) }
func (o cooOrder) Less(a, b int) bool {
	m := o.m
	if m.RowIdx[a] != m.RowIdx[b] {
		return m.RowIdx[a] < m.RowIdx[b]
	}
	return m.ColIdx[a] < m.ColIdx[b]
}
func (o cooOrder) Swap(a, b int) {
	m := o.m
	m.RowIdx[a], m.RowIdx[b] = m.RowIdx[b], m.RowIdx[a]
	m.ColIdx[a], m.ColIdx[b] = m.ColIdx[b], m.ColIdx[a]
	m.Val[a], m.Val[b] = m.Val[b], m.Val[a]
}

// ToCSR converts the COO matrix to CSR, compacting it first. The CSR
// takes over the compacted column and value arrays, so m is not to be
// changed afterwards.
func (m *COO) ToCSR() *CSR {
	m.Compact()
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int32, m.Rows+1),
		ColIdx: m.ColIdx,
		Val:    m.Val,
	}
	for _, r := range m.RowIdx {
		c.RowPtr[r+1]++
	}
	for i := 0; i < m.Rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	return c
}

// ToCOO converts a CSR matrix to coordinate format.
func (m *CSR) ToCOO() *COO {
	o := NewCOO(m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			o.RowIdx = append(o.RowIdx, int32(i))
			o.ColIdx = append(o.ColIdx, m.ColIdx[k])
			o.Val = append(o.Val, m.Val[k])
		}
	}
	return o
}

// SpMV computes y = A*x using the triplet entries. y is zeroed first.
func (m *COO) SpMV(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("matrix: COO SpMV shape mismatch: x %d y %d for %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for i := range y {
		y[i] = 0
	}
	for k := range m.Val {
		y[m.RowIdx[k]] += m.Val[k] * x[m.ColIdx[k]]
	}
}
