package formats

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// MaxPaddedEntries bounds the padded slab allocation of HYB and SELL-C-s;
// construction fails beyond it instead of exploding in memory.
const MaxPaddedEntries = 1 << 28

// HYB stores the first width entries of every row, width set to the mean
// row length, in a dense rows x width column-major slab, and spills the
// rest (Section II-B.3): the slab vectorizes like ELL without ELL's
// worst-case padding under row-length skew. The spill is row-indexed like
// CSR — row i's entries are [spillPtr[i], spillPtr[i+1]) — so a unit is one
// row, slab and spill.
type HYB struct {
	driver
	rows, cols int
	width      int
	nnz        int64
	colIdx     []int32   // rows*width, column-major: entry (i, j) at j*rows+i
	val        []float64 // same layout; padding entries hold value 0, col 0
	rowLen     []int32   // slab entries per row (excludes tail padding)
	spillPtr   []int32   // rows+1
	spillCol   []int32
	spillVal   []float64
}

// newHYB builds the hybrid format with the threshold at the mean row length.
func newHYB(m *matrix.CSR) (*HYB, error) {
	k := int(m.AvgRowNNZ() + 0.5)
	if k < 1 && m.NNZ() > 0 { // an empty matrix keeps 0: no slot may read x[0] when x is empty
		k = 1
	}
	return newHYBThreshold(m, k)
}

// newHYBThreshold builds HYB with an explicit slab width k (the ablation
// study of the split heuristic varies it). The spill's row lengths are
// taken first, so its arrays are allocated once at their exact size.
func newHYBThreshold(m *matrix.CSR, k int) (*HYB, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w HYB: negative threshold %d", ErrBuild, k)
	}
	padded := int64(m.Rows) * int64(k)
	if padded > MaxPaddedEntries {
		return nil, fmt.Errorf("%w HYB: threshold %d over %d rows exceeds padding bound", ErrBuild, k, m.Rows)
	}
	f := &HYB{
		rows: m.Rows, cols: m.Cols, width: k, nnz: int64(m.NNZ()),
		colIdx:   make([]int32, padded),
		val:      make([]float64, padded),
		rowLen:   make([]int32, m.Rows),
		spillPtr: make([]int32, m.Rows+1),
	}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		f.spillPtr[i+1] = f.spillPtr[i] + int32(max(len(cols)-k, 0))
	}
	f.spillCol = make([]int32, f.spillPtr[m.Rows])
	f.spillVal = make([]float64, f.spillPtr[m.Rows])
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		n := min(len(cols), k)
		for j, c := range cols[:n] {
			f.colIdx[j*m.Rows+i] = c
			f.val[j*m.Rows+i] = vals[j]
		}
		// Padding slots keep colIdx 0 and val 0. The column sweep still
		// multiplies them: 0*x[0] is a zero for a finite x[0] but NaN for an
		// infinite or NaN one, which turns every padded row's y into NaN
		// (ROADMAP item 3(c): the non-finite x contract is open).
		f.rowLen[i] = int32(n)
		copy(f.spillCol[f.spillPtr[i]:], cols[n:])
		copy(f.spillVal[f.spillPtr[i]:], vals[n:])
	}
	f.bind(f)
	return f, nil
}

// Name implements Format.
func (f *HYB) Name() string { return "HYB" }

// Rows implements Format.
func (f *HYB) Rows() int { return f.rows }

// Cols implements Format.
func (f *HYB) Cols() int { return f.cols }

// NNZ implements Format.
func (f *HYB) NNZ() int64 { return f.nnz }

// Bytes implements Format: 12 bytes per padded slab slot and the per-row
// length table the fused kernel uses to skip tail padding, then 12 bytes
// per spilled entry and the spill's row pointers.
func (f *HYB) Bytes() int64 {
	return int64(len(f.val))*12 + int64(len(f.rowLen))*4 + int64(len(f.spillVal))*12 + int64(len(f.spillPtr))*4
}

// Traits implements Format.
func (f *HYB) Traits() Traits {
	pad := 0.0
	if f.nnz > 0 {
		slabNNZ := f.nnz - int64(len(f.spillVal))
		pad = float64(int64(len(f.val))-slabNNZ) / float64(f.nnz)
	}
	return Traits{Balancing: NNZGranular, PaddingRatio: pad,
		MetaBytesPerNNZ: float64(f.Bytes()-8*f.nnz) / float64(max(f.nnz, 1)), Class: ClassSweep, ColumnMajor: true}
}

func (f *HYB) units() int { return f.rows }

// cum prices a row at its padded slab slots plus its spilled entries, so a
// claimed chunk carries its spill work.
func (f *HYB) cum(i int) int64 { return int64(i)*int64(f.width) + int64(f.spillPtr[i]) }

// sweep walks the slab over rows [lo, hi) column by column so every access
// is sequential — a row-by-row walk strides by `rows` elements and thrashes
// the cache. Per row the products still accumulate in ascending slab
// column order, so results are bit-identical to the row-major walk.
func (f *HYB) sweep(x, y []float64, lo, hi int) {
	rows := f.rows
	yy := y[lo:hi:hi]
	for j := range yy {
		yy[j] = 0
	}
	if simd.Enabled() {
		// Dispatched path: one vectorized axpy-gather per slab column —
		// same column order, one mul-then-add per element, bit-identical.
		for k := 0; k < f.width; k++ {
			base := k * rows
			simd.AxpyGather(yy, f.val[base+lo:base+hi], f.colIdx[base+lo:base+hi], x)
		}
		return
	}
	for k := 0; k < f.width; k++ {
		base := k * rows
		c := f.colIdx[base+lo : base+hi : base+hi]
		v := f.val[base+lo : base+hi : base+hi]
		v = v[:len(c)]
		for j, cj := range c {
			yy[j] += v[j] * x[cj]
		}
	}
}

// apply computes rows [lo, hi): the slab part, then each row's spill summed
// from +0 in entry order and added on (no spill pass at all when nothing
// spilled, as on the class fixture). At k = 1 the slab part is the column
// sweep; at k > 1 the fused kernel walks the slab row-major with the
// row-length table bounding each walk — bcastRow over the row's
// stride-rows slab entries: per row and register tile the partial sums
// live in registers, and tail padding is never touched at all. (Two
// alternatives measured slower: a row-tiled column sweep pays a y
// load+store per slot per vector, and a padded row-major walk wastes its
// loads on the padding it cannot skip.) The stride-rows slab loads stay
// cheap because one cache line covers eight consecutive rows' entries of a
// slab column. Per row the columns accumulate in ascending order and
// skipped padding contributes exactly +0.0, so every column of a k-wide
// block keeps its single-vector product's bits, on any lane count.
func (f *HYB) apply(y, x, _ []float64, k, lo, hi int) {
	if k == 1 {
		f.sweep(x, y, lo, hi)
	} else {
		l := newLadder(f.val, f.colIdx, x, y, f.rows, k)
		for i := lo; i < hi; i++ {
			l.bcastRow(i*k, i, int(f.rowLen[i]))
		}
	}
	if len(f.spillVal) == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		if p, q := int(f.spillPtr[i]), int(f.spillPtr[i+1]); p < q {
			cooRunInto(f.spillCol, f.spillVal, x, y[i*k:i*k+k], k, p, q)
		}
	}
}
