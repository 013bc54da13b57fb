package formats

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// ELL stores the matrix as dense rows x width column-major arrays, padding
// every row to the length of the longest. It vectorizes well on balanced
// matrices and degrades badly under row-length skew (Section II-B.3).
type ELL struct {
	driver
	rows, cols int
	width      int
	nnz        int64
	colIdx     []int32   // rows*width, column-major: entry (i, k) at k*rows+i
	val        []float64 // same layout; padding entries hold value 0, col 0
	rowLen     []int32   // stored entries per row (excludes tail padding)
}

// MaxELLPaddedEntries bounds the dense ELL allocation; construction fails
// beyond it, mirroring the memory blow-up that makes ELL unusable for
// heavily skewed matrices.
const MaxELLPaddedEntries = 1 << 28

// newELLShell allocates an empty, unbound ELL slab for the given geometry:
// newELL fills and binds it, HYB drives it as a part of its own kernel.
func newELLShell(rows, cols, width int) *ELL {
	padded := int64(rows) * int64(width)
	return &ELL{
		rows: rows, cols: cols, width: width,
		colIdx: make([]int32, padded),
		val:    make([]float64, padded),
		rowLen: make([]int32, rows),
	}
}

// newELL builds the ELL format. It fails when rows*maxRowLen exceeds
// MaxELLPaddedEntries.
func newELL(m *matrix.CSR) (*ELL, error) {
	width := m.MaxRowNNZ() // 0 for an empty matrix: no slot may read x[0] when x is empty
	padded := int64(m.Rows) * int64(width)
	if padded > MaxELLPaddedEntries {
		return nil, fmt.Errorf("%w ELL: %d rows x width %d = %d padded entries (max %d)",
			ErrBuild, m.Rows, width, padded, int64(MaxELLPaddedEntries))
	}
	f := newELLShell(m.Rows, m.Cols, width)
	f.nnz = int64(m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		f.rowLen[i] = int32(len(cols))
		for k, c := range cols {
			f.colIdx[k*m.Rows+i] = c
			f.val[k*m.Rows+i] = vals[k]
		}
		// Padding slots keep colIdx 0 and val 0. The column sweep still
		// multiplies them: 0*x[0] is a zero for a finite x[0] but NaN for an
		// infinite or NaN one, which turns every padded row's y into NaN
		// (ROADMAP item 3(c): the non-finite x contract is open).
	}
	f.bind(f)
	return f, nil
}

// Name implements Format.
func (f *ELL) Name() string { return "ELL" }

// Rows implements Format.
func (f *ELL) Rows() int { return f.rows }

// Cols implements Format.
func (f *ELL) Cols() int { return f.cols }

// NNZ implements Format.
func (f *ELL) NNZ() int64 { return f.nnz }

// Width returns the padded row length.
func (f *ELL) Width() int { return f.width }

// Bytes implements Format: 12 bytes per padded slot, plus the per-row
// length table the fused multi-vector kernel uses to skip tail padding.
func (f *ELL) Bytes() int64 { return int64(len(f.val))*12 + int64(len(f.rowLen))*4 }

// Traits implements Format.
func (f *ELL) Traits() Traits {
	pad := 0.0
	meta := 4.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.val))-f.nnz) / float64(f.nnz)
		meta = float64(f.Bytes()-8*f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: RowGranular, PaddingRatio: pad, MetaBytesPerNNZ: meta, Class: ClassSweep, ColumnMajor: true}
}

// rowRange walks the slab column by column so every access is sequential —
// the row-by-row order of the seed kernel strode by `rows` elements and
// thrashed the cache. Per row the products still accumulate in ascending k
// order, so results are bit-identical to the row-major walk.
func (f *ELL) rowRange(x, y []float64, lo, hi int) {
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

func (f *ELL) units() int { return f.rows }

// cum: every row costs exactly width padded slots, so equal row blocks
// are perfectly balanced in stored work (the imbalance moved into the
// padding itself).
func (f *ELL) cum(i int) int64 { return int64(i) * int64(f.width) }

// apply is the column sweep at k = 1 and the fused ELL kernel at k > 1.
// Unlike the single-vector kernel the fused one walks the slab row-major
// with the row-length table bounding each walk — bcastRow over the row's
// stride-rows slab entries: per row and register tile the partial sums
// live in registers, and tail padding — the bulk of a skewed matrix's
// slab, which the baseline must stream k times — is never touched at all.
// (Two alternatives measured slower: a row-tiled column sweep pays a y
// load+store per slot per vector, and a padded row-major walk wastes its
// loads on the padding it cannot skip.) The stride-rows slab loads stay
// cheap because one cache line covers eight consecutive rows' entries of a
// slab column. Per row the columns accumulate in ascending order and
// skipped padding contributes exactly +0.0, so each vector's result is
// bit-identical to the single-vector kernel's.
func (f *ELL) apply(y, x, _ []float64, k, lo, hi int) {
	if k == 1 {
		f.rowRange(x, y, lo, hi)
		return
	}
	l := newLadder(f.val, f.colIdx, x, y, f.rows, k)
	for i := lo; i < hi; i++ {
		l.bcastRow(i*k, i, int(f.rowLen[i]))
	}
}

// HYB combines an ELL part holding the first k entries of every row with a
// spill holding the rest, k set to the average row length (Section
// II-B.3). It keeps ELL's vectorization without its worst-case padding.
// The spill is row-indexed like CSR — row i's entries are
// [spillPtr[i], spillPtr[i+1]) — so a unit is one row, slab and spill.
type HYB struct {
	driver
	rows, cols int
	nnz        int64
	ell        *ELL
	spillPtr   []int32 // rows+1
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

// newHYBThreshold builds HYB with an explicit ELL width k (the ablation
// study of the split heuristic varies it). The spill's row lengths are
// taken first, so its arrays are allocated once at their exact size.
func newHYBThreshold(m *matrix.CSR, k int) (*HYB, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w HYB: negative threshold %d", ErrBuild, k)
	}
	if int64(m.Rows)*int64(k) > MaxELLPaddedEntries {
		return nil, fmt.Errorf("%w HYB: threshold %d over %d rows exceeds padding bound", ErrBuild, k, m.Rows)
	}
	f := &HYB{
		rows: m.Rows, cols: m.Cols, nnz: int64(m.NNZ()),
		ell:      newELLShell(m.Rows, m.Cols, k),
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
			f.ell.colIdx[j*m.Rows+i] = c
			f.ell.val[j*m.Rows+i] = vals[j]
		}
		f.ell.rowLen[i] = int32(n)
		f.ell.nnz += int64(n)
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

// Bytes implements Format: the ELL part, 12 bytes per spilled entry and
// the spill's row pointers.
func (f *HYB) Bytes() int64 {
	return f.ell.Bytes() + int64(len(f.spillVal))*12 + int64(len(f.spillPtr))*4
}

// Traits implements Format.
func (f *HYB) Traits() Traits {
	pad := 0.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.ell.val))-f.ell.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: NNZGranular, PaddingRatio: pad,
		MetaBytesPerNNZ: float64(f.Bytes()-8*f.nnz) / float64(max(f.nnz, 1)), Class: ClassSweep, ColumnMajor: true}
}

func (f *HYB) units() int { return f.rows }

// cum prices a row at its padded slab slots plus its spilled entries, so a
// claimed chunk carries its spill work.
func (f *HYB) cum(i int) int64 { return f.ell.cum(i) + int64(f.spillPtr[i]) }

// apply is the ELL part's kernel over rows [lo, hi) — the slab sweep, or
// at k > 1 the rowLen-bounded fused walk — then each row's spill summed
// from +0 in entry order and added on: every column of a k-wide block
// keeps its single-vector product's bits, on any lane count.
func (f *HYB) apply(y, x, c []float64, k, lo, hi int) {
	f.ell.apply(y, x, c, k, lo, hi)
	for i := lo; i < hi; i++ {
		if p, q := int(f.spillPtr[i]), int(f.spillPtr[i+1]); p < q {
			cooRunInto(f.spillCol, f.spillVal, x, y[i*k:i*k+k], k, p, q)
		}
	}
}
