// Package matrix provides the sparse-matrix substrate used throughout the
// repository: CSR and COO storage, conversions, a dense reference
// implementation, MatrixMarket I/O and structural queries.
//
// Conventions: values are float64 (the paper evaluates double precision),
// indices are int32 so the CSR memory-footprint formula matches the paper's
// 12*nnz + 4*(rows+1) bytes. Column indices within a row are kept sorted and
// unique; every constructor and conversion either establishes or preserves
// this invariant.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
// RowPtr has length Rows+1; the column indices and values of row i live in
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]]. Column
// indices within a row are strictly increasing.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// ErrDimension reports an impossible matrix shape.
var ErrDimension = errors.New("matrix: invalid dimensions")

// NewCSR constructs a CSR matrix from raw components after validating the
// structural invariants. The slices are retained, not copied.
func NewCSR(rows, cols int, rowPtr, colIdx []int32, val []float64) (*CSR, error) {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// NNZ returns the number of stored nonzero entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns the column indices and values of row i, backed by the matrix
// storage (no copy).
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// FootprintBytes returns the CSR storage size in bytes, the paper's f1
// feature before scaling to MiB: 8 bytes per value, 4 per column index and
// 4 per row-pointer entry.
func (m *CSR) FootprintBytes() int64 {
	return int64(m.NNZ())*12 + int64(m.Rows+1)*4
}

// FootprintMB returns the CSR storage size in MiB (the paper's f1 unit).
func (m *CSR) FootprintMB() float64 {
	return float64(m.FootprintBytes()) / (1 << 20)
}

// Validate checks all structural invariants: monotone row pointers, in-range
// sorted unique column indices, and consistent slice lengths.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("%w: %dx%d", ErrDimension, m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("matrix: ColIdx length %d != Val length %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.Val) {
		return fmt.Errorf("matrix: RowPtr[last] = %d, want nnz %d", m.RowPtr[m.Rows], len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("matrix: row %d has negative length", i)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("matrix: row %d column %d out of range [0,%d)", i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("matrix: row %d columns not strictly increasing at %d", i, c)
			}
			prev = c
		}
	}
	return nil
}

// SpMV computes y = A*x with the canonical serial CSR kernel. It is the
// correctness reference for every storage format in internal/formats.
// len(x) must be Cols and len(y) must be Rows.
func (m *CSR) SpMV(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("matrix: SpMV shape mismatch: x %d y %d for %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = sum
	}
}

// WithinDotBound reports whether two computed products of m with the k-wide
// row-major block x agree to within the forward error bound of a
// floating-point dot product:
//
//	|got - want| <= 2 * n * 2^-53 * sum_j |a_ij * x_j|
//
// per element, n being the row's stored entries — each side is within
// n*u*sum|a_ij*x_j| of the exact sum in whatever order it accumulated, fused
// or not. The scale is the row's, not the result's: a cancelling row may
// differ by many ulps of its small result and be as accurate as arithmetic
// allows. On failure it returns the first offending index; a NaN fails.
func (m *CSR) WithinDotBound(x []float64, k int, got, want []float64) (int, bool) {
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		unit := 2 * float64(len(cols)) * 0x1p-53
		for t := 0; t < k; t++ {
			g, w := got[i*k+t], want[i*k+t]
			if g == w {
				continue
			}
			scale := 0.0
			for j, c := range cols {
				scale += math.Abs(vals[j] * x[int(c)*k+t])
			}
			if !(math.Abs(g-w) <= unit*scale) {
				return i*k + t, false
			}
		}
	}
	return 0, true
}

// MaxRowNNZ returns the maximum number of stored entries in any row
// (0 for an empty matrix).
func (m *CSR) MaxRowNNZ() int {
	max := 0
	for i := 0; i < m.Rows; i++ {
		if n := m.RowNNZ(i); n > max {
			max = n
		}
	}
	return max
}

// AvgRowNNZ returns the mean number of stored entries per row, the paper's
// f2 feature.
func (m *CSR) AvgRowNNZ() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// Equal reports whether two matrices have identical shape and stored
// structure, with values compared exactly.
func (m *CSR) Equal(o *CSR) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols && slices.Equal(m.RowPtr, o.RowPtr) &&
		slices.Equal(m.ColIdx, o.ColIdx) && slices.Equal(m.Val, o.Val)
}

// String summarizes the matrix shape and density.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR %dx%d nnz=%d (%.2f MiB, %.2f nnz/row)",
		m.Rows, m.Cols, m.NNZ(), m.FootprintMB(), m.AvgRowNNZ())
}
