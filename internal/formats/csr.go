package formats

import (
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simd"
)

// CSR is the compressed-sparse-row format with one kernel: every row in
// simd.CSRRowRangeGo's canonical order at every SIMD tier and every k, so
// a (matrix, x) gets one y whatever preset, tier, worker count or batch
// width computes it. The paper's four CSR formats are presets of it that
// set two switches: the partition policy and whether rows run the
// dispatched kernel (simd.CSRRowRange) or its Go reference.
//
//	Naive-CSR  Go kernel          row blocks
//	Bal-CSR    Go kernel          nonzero-balanced
//	Vec-CSR    dispatched kernel  row blocks
//	MKL-IE     dispatched kernel  nonzero-balanced when the build-time
//	                              inspection finds the row lengths skewed
//
// MKL-IE stands for the vendors' inspector-executor CSR (Intel MKL,
// AOCL-Sparse, ARMPL), whose build step commits to an execution strategy.
//
// On at most narrowMaxCols columns the family stores 2-byte column indices
// (12 -> 10 bytes per nonzero) read by the same kernels in the same order,
// so results are bit-identical; a wider matrix shares its int32 array.
// Cols alone decides: nothing to tune.
type CSR struct {
	driver
	name       string
	rows, cols int
	rowPtr     []int32
	colIdx     []int32  // nil when col16 holds the indices
	col16      []uint16 // with simd.U16Slack zeroed entries past the last
	val        []float64
	balance    bool // nonzero-balanced partitions (sched.NNZBalanced)
	dispatch   bool // rows run simd.CSRRowRange, not simd.CSRRowRangeGo
	inspected  bool // MKL-IE: balance chosen by inspecting the rows (Traits.Preprocessed)
}

// narrowMaxCols is the widest matrix whose column indices fit uint16.
const narrowMaxCols = 1 << 16

// balMinSkew is MKL-IE's inspection threshold: a skew above it makes row
// blocks lose to nonzero balancing.
const balMinSkew = 4.0

// csrOf wraps a CSR matrix (sharing its storage, the column indices unless
// it narrows them; the matrix must not be mutated while the format is in
// use). The caller sets the switches and binds the driver once the
// outermost format is assembled.
func csrOf(m *matrix.CSR) CSR {
	c := CSR{rows: m.Rows, cols: m.Cols, rowPtr: m.RowPtr, colIdx: m.ColIdx, val: m.Val}
	if m.Cols <= narrowMaxCols {
		c.colIdx, c.col16 = nil, narrowIdx(m.ColIdx)
	}
	return c
}

// narrowIdx is src as col16. It is on every build's path, so it converts
// eight indices per bounds check into one allocation.
func narrowIdx(src []int32) []uint16 {
	dst := make([]uint16, len(src)+simd.U16Slack)
	j := 0
	for ; j+8 <= len(src); j += 8 {
		s, d := (*[8]int32)(src[j:]), (*[8]uint16)(dst[j:])
		d[0], d[1], d[2], d[3] = uint16(s[0]), uint16(s[1]), uint16(s[2]), uint16(s[3])
		d[4], d[5], d[6], d[7] = uint16(s[4]), uint16(s[5]), uint16(s[6]), uint16(s[7])
	}
	for ; j < len(src); j++ {
		dst[j] = uint16(src[j])
	}
	return dst
}

// newPreset builds the named CSR preset: "Naive-CSR", "Bal-CSR",
// "Vec-CSR" or "MKL-IE".
func newPreset(name string, m *matrix.CSR) *CSR {
	c := csrOf(m)
	c.name = name
	switch name {
	case "Bal-CSR":
		c.balance = true
	case "Vec-CSR":
		c.dispatch = true
	case "MKL-IE":
		c.dispatch, c.inspected = true, true
		if avg := m.AvgRowNNZ(); avg > 0 {
			c.balance = (float64(m.MaxRowNNZ())-avg)/avg > balMinSkew
		}
	}
	c.bind(&c)
	return &c
}

// Name implements Format.
func (f *CSR) Name() string { return f.name }

// Rows implements Format.
func (f *CSR) Rows() int { return f.rows }

// Cols implements Format.
func (f *CSR) Cols() int { return f.cols }

// NNZ implements Format.
func (f *CSR) NNZ() int64 { return int64(len(f.val)) }

// Bytes implements Format.
func (f *CSR) Bytes() int64 {
	return int64(len(f.val))*8 + int64(len(f.colIdx))*4 + int64(len(f.col16))*2 + int64(f.rows+1)*4
}

func (f *CSR) units() int { return f.rows }

// cum is the CSR cumulative work measure: nonzeros plus a row visit each.
func (f *CSR) cum(i int) int64 { return int64(f.rowPtr[i]) + int64(i) }

// plan splits rows under the preset's policy.
func (f *CSR) plan(key exec.PlanKey) *exec.Plan {
	policy := sched.RowBlocks
	if f.balance {
		policy = sched.NNZBalanced
	}
	return &exec.Plan{Ranges: policy(f.rowPtr, key.Workers)}
}

// Traits implements Format.
func (f *CSR) Traits() Traits {
	meta := float64(f.Bytes()-8*f.NNZ()) / float64(max(f.NNZ(), 1))
	t := Traits{Balancing: RowGranular, MetaBytesPerNNZ: meta, Class: ClassDotGo, Preprocessed: f.inspected}
	if f.balance {
		t.Balancing = NNZGranular
	}
	if f.dispatch {
		t.Class = ClassDotGather
	}
	return t
}

// apply runs rows [lo, hi) of the k-wide product through the preset's
// kernel; k = 1 is the same order as every other k.
func (f *CSR) apply(y, x, _ []float64, k, lo, hi int) {
	if f.col16 != nil {
		csrRows(f, f.col16, y, x, k, lo, hi)
	} else {
		csrRows(f, f.colIdx, y, x, k, lo, hi)
	}
}

func csrRows[I simd.Index](f *CSR, col []I, y, x []float64, k, lo, hi int) {
	if f.dispatch {
		simd.CSRRowRange(f.rowPtr, col, f.val, x, y, lo, hi, k)
	} else {
		simd.CSRRowRangeGo(f.rowPtr, col, f.val, x, y, lo, hi, k)
	}
}
