package formats

import (
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simd"
)

// CSR is the naive compressed-sparse-row format with row-block parallelism,
// the baseline every platform in the paper provides. Its variants embed it
// and differ in two fields: the partition policy and whether the
// single-vector row kernel is the vectorized one.
// On at most narrowMaxCols columns the family stores 2-byte column indices
// (12 -> 10 bytes per nonzero) read by the int32 kernels' own generic or
// macro bodies in the same order, so results are bit-identical; a wider
// matrix shares its int32 array. Cols alone decides: nothing to tune.
type CSR struct {
	driver
	rows, cols int
	rowPtr     []int32
	colIdx     []int32  // nil when col16 holds the indices
	col16      []uint16 // with simd.U16Slack zeroed entries past the last
	val        []float64
	policy     sched.Partitioner
	vectorize  bool // k = 1 rows run vecCSRRowRange (Vec-CSR; MKL-IE unless a scalar tier inspects short rows)
	tune       Tuning
}

// narrowMaxCols is the widest matrix whose column indices fit uint16.
const narrowMaxCols = 1 << 16

// csrOf wraps a CSR matrix (sharing its storage, the column indices unless
// it narrows them; the matrix must not be mutated while the format is in
// use) under the given partition policy. The caller binds the driver once
// the outermost format is assembled.
func csrOf(m *matrix.CSR, policy sched.Partitioner, t Tuning) CSR {
	c := CSR{rows: m.Rows, cols: m.Cols, rowPtr: m.RowPtr, colIdx: m.ColIdx, val: m.Val, policy: policy, tune: t}
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

func newCSR(m *matrix.CSR, t Tuning) *CSR {
	c := csrOf(m, sched.RowBlocks, t)
	c.bind(&c)
	return &c
}

// Name implements Format.
func (f *CSR) Name() string { return "Naive-CSR" }

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

// plan splits rows under the format's policy.
func (f *CSR) plan(key exec.PlanKey, _ int) *exec.Plan {
	return &exec.Plan{Ranges: f.policy(f.rowPtr, key.Workers)}
}

// Traits implements Format.
func (f *CSR) Traits() Traits {
	meta := float64(f.Bytes()-8*f.NNZ()) / float64(max(f.NNZ(), 1))
	t := Traits{Balancing: RowGranular, MetaBytesPerNNZ: meta, Class: ClassRowSum}
	if f.vectorize {
		t.Class = ClassDotGather
	}
	return t
}

// csrRowRange is the scalar CSR kernel. Rows are materialized as capped
// sub-slices so the compiler drops the val/colIdx bounds checks from the
// inner loop; only the x gather keeps its check (its index is data).
func csrRowRange[I simd.Index](rowPtr []int32, colIdx []I, val, x, y []float64, lo, hi int) {
	end := int(rowPtr[lo])
	for i := lo; i < hi; i++ {
		start := end
		end = int(rowPtr[i+1])
		c := colIdx[start:end:end]
		v := val[start:end:end]
		v = v[:len(c)]
		sum := 0.0
		for k, ck := range c {
			sum += v[k] * x[ck]
		}
		y[i] = sum
	}
}

// apply is the scalar or the vectorized row kernel at k = 1 and the fused
// register-tiled ladder at k > 1, whatever the variant: the tile already
// provides the register-level parallelism the vectorized single-vector
// kernel unrolls for.
func (f *CSR) apply(y, x []float64, k, lo, hi int) {
	if f.col16 != nil {
		csrApply(f, f.col16, y, x, k, lo, hi)
	} else {
		csrApply(f, f.colIdx, y, x, k, lo, hi)
	}
}

func csrApply[I simd.Index](f *CSR, col []I, y, x []float64, k, lo, hi int) {
	switch {
	case k > 1:
		l := newLadder(f.tune, f.val, col, x, y, 1, k)
		for i := lo; i < hi; i++ {
			l.bcastRow(i*k, int(f.rowPtr[i]), int(f.rowPtr[i+1]-f.rowPtr[i]))
		}
	case f.vectorize:
		vecCSRRowRange(f.rowPtr, col, f.val, x, y, lo, hi)
	default:
		csrRowRange(f.rowPtr, col, f.val, x, y, lo, hi)
	}
}

// VecCSR is CSR with an unrolled (dispatched: gather+FMA) inner loop,
// standing in for the AVX2/NEON vectorized CSR kernels of the paper's CPU
// testbeds.
type VecCSR struct {
	CSR
}

func newVecCSR(m *matrix.CSR, t Tuning) *VecCSR {
	f := &VecCSR{csrOf(m, sched.RowBlocks, t)}
	f.vectorize = true
	f.bind(f)
	return f
}

// Name implements Format.
func (f *VecCSR) Name() string { return "Vec-CSR" }

// vecCSRRowRange is the vectorized CSR kernel: dispatched, one call whose
// row loop runs inside simd.CSRRowRange; on the scalar tier four
// independent accumulators hide the FP-add latency chain and capped
// sub-slices drop the val/colIdx bounds checks like the scalar kernel. Both
// reassociate the row sum within matrix.CSR.WithinDotBound's forward bound.
func vecCSRRowRange[I simd.Index](rowPtr []int32, colIdx []I, val, x, y []float64, lo, hi int) {
	if simd.Enabled() {
		simd.CSRRowRange(rowPtr, colIdx, val, x, y, lo, hi)
		return
	}
	end := int(rowPtr[lo])
	for i := lo; i < hi; i++ {
		start := end
		end = int(rowPtr[i+1])
		c := colIdx[start:end:end]
		v := val[start:end:end]
		v = v[:len(c)]
		n := len(c)
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= n; k += 4 {
			s0 += v[k] * x[c[k]]
			s1 += v[k+1] * x[c[k+1]]
			s2 += v[k+2] * x[c[k+2]]
			s3 += v[k+3] * x[c[k+3]]
		}
		sum := (s0 + s1) + (s2 + s3)
		for ; k < n; k++ {
			sum += v[k] * x[c[k]]
		}
		y[i] = sum
	}
}

// BalCSR is CSR with nonzero-balanced row partitioning (the paper's
// "Balanced-CSR": nonzero balancing at row resolution).
type BalCSR struct {
	CSR
}

func newBalCSR(m *matrix.CSR, t Tuning) *BalCSR {
	f := &BalCSR{csrOf(m, sched.NNZBalanced, t)}
	f.bind(f)
	return f
}

// Name implements Format.
func (f *BalCSR) Name() string { return "Bal-CSR" }

// Traits implements Format.
func (f *BalCSR) Traits() Traits {
	t := f.CSR.Traits()
	t.Balancing = NNZGranular
	return t
}

// InspectorCSR models the vendor inspector-executor CSR (Intel MKL-IE,
// AOCL-Sparse, ARMPL): the build step inspects the matrix and commits to an
// execution strategy — vectorized inner loops when rows are long enough and
// nonzero-balanced partitioning when row lengths are skewed.
type InspectorCSR struct {
	CSR
	balance bool
}

// Inspection thresholds: skew above balMinSkew makes row blocks lose to nnz
// balancing; on the scalar tier rows shorter than vecMinRow on average do
// not repay unrolling. The dispatched kernel has no such floor: MKL-IE on
// one lane at 2-8 nnz/row, sequential over vectorized kernel time read
// 2.1-3.7x on avx512, 1.4-3.3x on avx2 and 0.85-1.11x on the scalar tier.
const (
	vecMinRow  = 8.0
	balMinSkew = 4.0
)

func inspectVectorize(avg float64) bool { return simd.Enabled() || avg >= vecMinRow }

func newInspectorCSR(m *matrix.CSR, t Tuning) *InspectorCSR {
	f := &InspectorCSR{CSR: csrOf(m, sched.RowBlocks, t)}
	avg := m.AvgRowNNZ()
	f.vectorize = inspectVectorize(avg)
	if avg > 0 {
		skew := (float64(m.MaxRowNNZ()) - avg) / avg
		f.balance = skew > balMinSkew
	}
	if f.balance {
		f.policy = sched.NNZBalanced
	}
	f.bind(f)
	return f
}

// Name implements Format.
func (f *InspectorCSR) Name() string { return "MKL-IE" }

// Traits implements Format.
func (f *InspectorCSR) Traits() Traits {
	t := f.CSR.Traits()
	t.Preprocessed = true
	if f.balance {
		t.Balancing = NNZGranular
	}
	return t
}
