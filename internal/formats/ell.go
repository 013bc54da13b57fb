package formats

import (
	"fmt"

	"repro/internal/exec"
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
	tune       Tuning
}

// MaxELLPaddedEntries bounds the dense ELL allocation; construction fails
// beyond it, mirroring the memory blow-up that makes ELL unusable for
// heavily skewed matrices.
const MaxELLPaddedEntries = 1 << 28

// newELLShell allocates an empty, unbound ELL slab for the given geometry:
// NewELL fills and binds it, HYB drives it as a part of its own kernel.
func newELLShell(rows, cols, width int, t Tuning) *ELL {
	padded := int64(rows) * int64(width)
	return &ELL{
		rows: rows, cols: cols, width: width,
		colIdx: make([]int32, padded),
		val:    make([]float64, padded),
		rowLen: make([]int32, rows),
		tune:   t,
	}
}

// NewELL builds the ELL format. It fails when rows*maxRowLen exceeds
// MaxELLPaddedEntries.
func NewELL(m *matrix.CSR) (*ELL, error) { return newELL(m, Tuning{}) }

func newELL(m *matrix.CSR, t Tuning) (*ELL, error) {
	width := m.MaxRowNNZ()
	if width == 0 {
		width = 1
	}
	padded := int64(m.Rows) * int64(width)
	if padded > MaxELLPaddedEntries {
		return nil, fmt.Errorf("%w ELL: %d rows x width %d = %d padded entries (max %d)",
			ErrBuild, m.Rows, width, padded, int64(MaxELLPaddedEntries))
	}
	f := newELLShell(m.Rows, m.Cols, width, t)
	f.nnz = int64(m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		f.rowLen[i] = int32(len(cols))
		for k, c := range cols {
			f.colIdx[k*m.Rows+i] = c
			f.val[k*m.Rows+i] = vals[k]
		}
		// Padding slots keep colIdx 0 and val 0; 0*x[0] contributes nothing
		// for finite x.
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

func (f *ELL) plan(key exec.PlanKey, _ int) *exec.Plan { return evenPlan(f.rows, key) }

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
func (f *ELL) apply(y, x []float64, k, lo, hi int) {
	if k == 1 {
		f.rowRange(x, y, lo, hi)
		return
	}
	l := f.tune.ladder(f.val, f.colIdx, x, y, f.rows, k)
	for i := lo; i < hi; i++ {
		l.bcastRow(i*k, i, int(f.rowLen[i]))
	}
}

// HYB combines an ELL part holding the first k entries of every row with a
// COO part holding the spill, k set to the average row length
// (Section II-B.3). It keeps ELL's vectorization without its worst-case
// padding.
type HYB struct {
	driver
	rows, cols int
	nnz        int64
	ell        *ELL
	spill      *COO
}

// NewHYB builds the hybrid format with the threshold at the mean row length.
func NewHYB(m *matrix.CSR) (*HYB, error) { return newHYB(m, Tuning{}) }

func newHYB(m *matrix.CSR, t Tuning) (*HYB, error) {
	k := int(m.AvgRowNNZ() + 0.5)
	if k < 1 {
		k = 1
	}
	return newHYBThreshold(m, k, t)
}

// NewHYBThreshold builds HYB with an explicit ELL width k (exposed for the
// ablation study of the split heuristic).
func NewHYBThreshold(m *matrix.CSR, k int) (*HYB, error) { return newHYBThreshold(m, k, Tuning{}) }

func newHYBThreshold(m *matrix.CSR, k int, t Tuning) (*HYB, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w HYB: negative threshold %d", ErrBuild, k)
	}
	if int64(m.Rows)*int64(k) > MaxELLPaddedEntries {
		return nil, fmt.Errorf("%w HYB: threshold %d over %d rows exceeds padding bound", ErrBuild, k, m.Rows)
	}
	ellPart := newELLShell(m.Rows, m.Cols, k, t)
	spill := matrix.NewCOO(m.Rows, m.Cols, 0)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for j, c := range cols {
			if j < k {
				ellPart.colIdx[j*m.Rows+i] = c
				ellPart.val[j*m.Rows+i] = vals[j]
				ellPart.nnz++
			} else {
				spill.Append(int32(i), c, vals[j])
			}
		}
		if n := len(cols); n < k {
			ellPart.rowLen[i] = int32(n)
		} else {
			ellPart.rowLen[i] = int32(k)
		}
	}
	f := &HYB{
		rows: m.Rows, cols: m.Cols, nnz: int64(m.NNZ()),
		ell:   ellPart,
		spill: newCOOFromParts(m.Rows, m.Cols, spill.RowIdx, spill.ColIdx, spill.Val, true),
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

// Bytes implements Format.
func (f *HYB) Bytes() int64 { return f.ell.Bytes() + f.spill.Bytes() }

// SpillNNZ returns the number of entries in the COO spill part.
func (f *HYB) SpillNNZ() int64 { return f.spill.NNZ() }

// Traits implements Format.
func (f *HYB) Traits() Traits {
	pad := 0.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.ell.val))-f.ell.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: NNZGranular, PaddingRatio: pad,
		MetaBytesPerNNZ: float64(f.Bytes()-8*f.nnz) / float64(max(f.nnz, 1)), Class: ClassSweep, ColumnMajor: true}
}

// HYB's kernel is its ELL part's — the row-granular slab sweep (rowLen
// table skipping tail padding at k > 1) — followed by the spill.

func (f *HYB) units() int { return f.rows }

func (f *HYB) cum(i int) int64 { return f.ell.cum(i) }

func (f *HYB) plan(key exec.PlanKey, k int) *exec.Plan { return f.ell.plan(key, k) }

func (f *HYB) apply(y, x []float64, k, lo, hi int) { f.ell.apply(y, x, k, lo, hi) }

// after implements epilogue: the COO spill accumulates nnz-parallel on top
// of the finished ELL sweep, with boundary carries. Its lanes are sized by
// entry count alone at every k (see COO.addWorkers) and the ELL part is
// row-granular, so each vector of a fused multiply accumulates every row
// in the same order as a single-vector multiply would — bit-identical to
// the by-column fallback the fused kernel replaced.
func (f *HYB) after(ctl *exec.Ctl, y, x []float64, k, workers int) error {
	return f.spill.run(ctl, y, x, k, f.spill.addWorkers(workers))
}
