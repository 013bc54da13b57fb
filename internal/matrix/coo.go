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
// addition. It returns the number of merged duplicates.
//
// The compaction is delta-log friendly: one linear scan finds the longest
// already-sorted duplicate-free prefix and leaves it in place, so a log
// assembled by appending t new entries onto a previously compacted run
// costs O(n + t log t) instead of re-sorting all n entries. An already
// compact matrix (the common case for frozen overlays) is a pure scan
// with no mutation at all. The tail sort is stable and the run merge
// consumes the prefix first on equal cells, so duplicates accumulate in
// append order — Compact is deterministic bit for bit.
func (m *COO) Compact() int {
	n := len(m.Val)
	if n <= 1 {
		return 0
	}
	// Longest strictly increasing (row-major) prefix: sorted AND unique.
	p := 1
	for p < n && (m.RowIdx[p-1] < m.RowIdx[p] ||
		(m.RowIdx[p-1] == m.RowIdx[p] && m.ColIdx[p-1] < m.ColIdx[p])) {
		p++
	}
	if p == n {
		return 0
	}
	sort.Stable(cooTail{m, p})
	// Merge the two sorted runs into fresh arrays (the shrink on duplicate
	// merge makes a safe in-place merge more trouble than the copy).
	rowOut := make([]int32, 0, n)
	colOut := make([]int32, 0, n)
	valOut := make([]float64, 0, n)
	merged := 0
	push := func(r, c int32, v float64) {
		if k := len(valOut); k > 0 && rowOut[k-1] == r && colOut[k-1] == c {
			valOut[k-1] += v
			merged++
			return
		}
		rowOut = append(rowOut, r)
		colOut = append(colOut, c)
		valOut = append(valOut, v)
	}
	i, j := 0, p
	for i < p && j < n {
		// Prefix first on equal cells: its entries were appended (and any
		// earlier Compact accumulated them) before everything in the tail.
		if m.RowIdx[i] < m.RowIdx[j] ||
			(m.RowIdx[i] == m.RowIdx[j] && m.ColIdx[i] <= m.ColIdx[j]) {
			push(m.RowIdx[i], m.ColIdx[i], m.Val[i])
			i++
		} else {
			push(m.RowIdx[j], m.ColIdx[j], m.Val[j])
			j++
		}
	}
	for ; i < p; i++ {
		push(m.RowIdx[i], m.ColIdx[i], m.Val[i])
	}
	for ; j < n; j++ {
		push(m.RowIdx[j], m.ColIdx[j], m.Val[j])
	}
	m.RowIdx = rowOut
	m.ColIdx = colOut
	m.Val = valOut
	return merged
}

// cooTail sorts the unsorted tail [base:] of a COO log by (row, col).
// Used with sort.Stable so entries for one cell keep their append order.
type cooTail struct {
	m    *COO
	base int
}

func (o cooTail) Len() int { return len(o.m.Val) - o.base }
func (o cooTail) Less(i, j int) bool {
	m := o.m
	a, b := o.base+i, o.base+j
	if m.RowIdx[a] != m.RowIdx[b] {
		return m.RowIdx[a] < m.RowIdx[b]
	}
	return m.ColIdx[a] < m.ColIdx[b]
}
func (o cooTail) Swap(i, j int) {
	m := o.m
	a, b := o.base+i, o.base+j
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
