package formats

import (
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simd"
)

// CSR is the naive compressed-sparse-row format with row-block parallelism,
// the baseline every platform in the paper provides. Its variants embed it
// and differ in the single-vector row kernel and the partition policy.
type CSR struct {
	driver
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	val        []float64
	policy     sched.Partitioner
	tune       Tuning
}

// csrOf wraps a CSR matrix (sharing its storage; the matrix must not be
// mutated while the format is in use) under the given partition policy.
// The caller binds the driver once the outermost format is assembled.
func csrOf(m *matrix.CSR, policy sched.Partitioner, t Tuning) CSR {
	return CSR{rows: m.Rows, cols: m.Cols, rowPtr: m.RowPtr, colIdx: m.ColIdx, val: m.Val,
		policy: policy, tune: t}
}

// NewCSR builds the naive CSR format over equal-count row blocks.
func NewCSR(m *matrix.CSR) *CSR { return newCSR(m, Tuning{}) }

func newCSR(m *matrix.CSR, t Tuning) *CSR {
	c := csrOf(m, sched.RowBlocks, t)
	c.bind(&c, true)
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
func (f *CSR) Bytes() int64 { return int64(len(f.val))*12 + int64(f.rows+1)*4 }

func (f *CSR) units() int { return f.rows }

// cum is the CSR cumulative work measure: nonzeros plus a row visit each.
func (f *CSR) cum(i int) int64 { return int64(f.rowPtr[i]) + int64(i) }

// plan splits rows under the format's policy (per domain slice when the
// dispatch gangs across shards).
func (f *CSR) plan(key exec.PlanKey, _ int) *exec.Plan { return rowPlan(f.rowPtr, key, f.policy) }

// Traits implements Format.
func (f *CSR) Traits() Traits {
	return Traits{Balancing: RowGranular, MetaBytesPerNNZ: metaPerNNZCSR(len(f.val), f.rows)}
}

func metaPerNNZCSR(nnz, rows int) float64 {
	if nnz == 0 {
		return 4
	}
	return 4 + 4*float64(rows+1)/float64(nnz)
}

// csrRowRange is the scalar CSR kernel. Rows are materialized as capped
// sub-slices so the compiler drops the val/colIdx bounds checks from the
// inner loop; only the x gather keeps its check (its index is data).
func csrRowRange(rowPtr, colIdx []int32, val, x, y []float64, lo, hi int) {
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

// apply is the scalar row kernel at k = 1 and the fused register-tiled
// kernel at k > 1. Vec-CSR and MKL-IE replace only the k = 1 loop: the
// multi-vector tile already provides the register-level parallelism their
// single-vector kernels unroll for.
func (f *CSR) apply(y, x []float64, k, lo, hi int) {
	if k == 1 {
		csrRowRange(f.rowPtr, f.colIdx, f.val, x, y, lo, hi)
		return
	}
	csrRowRangeMulti(f.rowPtr, f.colIdx, f.val, x, y, k, lo, hi, !f.tune.NarrowTiles)
}

// VecCSR is CSR with an 8-way unrolled inner loop, standing in for the
// AVX2/NEON vectorized CSR kernels of the paper's CPU testbeds.
type VecCSR struct {
	CSR
	oneColumn
}

// NewVecCSR builds the vectorized-CSR format.
func NewVecCSR(m *matrix.CSR) *VecCSR { return newVecCSR(m, Tuning{}) }

func newVecCSR(m *matrix.CSR, t Tuning) *VecCSR {
	f := &VecCSR{CSR: csrOf(m, sched.RowBlocks, t)}
	f.bind(f, true)
	f.oneColumn = oneColumnOf(&f.CSR)
	return f
}

// Name implements Format.
func (f *VecCSR) Name() string { return "Vec-CSR" }

// Traits implements Format.
func (f *VecCSR) Traits() Traits {
	t := f.CSR.Traits()
	t.Vectorizable = true
	return t
}

// defaultVecWideRowMin gates the widened 8-accumulator inner loop of the
// scalar vectorized-CSR kernel. Widening was evaluated for the usual
// latency-hiding rationale, but on gather-bound x86 parts the x-vector
// loads saturate the load ports long before the FP-add chain limits
// throughput, and the measured effect of the wide path was negative at
// every tested row length (avg 10, 20, 64 and 256 nnz/row; 4-way +
// bounds-check elimination won throughout). The wide path therefore only
// engages for very long rows, where its reduction overhead is fully
// amortized. The dispatched SIMD path never reads it.
const defaultVecWideRowMin = 512

// vecCSRRowRange is the unrolled CSR kernel: four independent accumulators
// (eight for very long rows) hide the FP-add latency chain, short rows skip
// the unroll entirely, and capped sub-slices drop the val/colIdx bounds
// checks like the scalar kernel.
func vecCSRRowRange(rowPtr, colIdx []int32, val, x, y []float64, lo, hi int) {
	if simd.Enabled() {
		// Dispatched path: the gather+FMA row dot-product. Like the wide
		// scalar path it reassociates the per-row sum (8 partial sums), a
		// tolerance Vec-CSR's contract already grants. Rows below the
		// dispatch cutoff keep an inlined sequential sum.
		end := int(rowPtr[lo])
		for i := lo; i < hi; i++ {
			start := end
			end = int(rowPtr[i+1])
			if end-start >= simdMinN {
				y[i] = simd.DotGather(val[start:end], colIdx[start:end], x)
				continue
			}
			c := colIdx[start:end:end]
			v := val[start:end:end]
			v = v[:len(c)]
			var s float64
			for j, cj := range c {
				s += v[j] * x[cj]
			}
			y[i] = s
		}
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
		if n >= defaultVecWideRowMin {
			var s4, s5, s6, s7 float64
			for ; k+8 <= n; k += 8 {
				s0 += v[k] * x[c[k]]
				s1 += v[k+1] * x[c[k+1]]
				s2 += v[k+2] * x[c[k+2]]
				s3 += v[k+3] * x[c[k+3]]
				s4 += v[k+4] * x[c[k+4]]
				s5 += v[k+5] * x[c[k+5]]
				s6 += v[k+6] * x[c[k+6]]
				s7 += v[k+7] * x[c[k+7]]
			}
			s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
		}
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

func (f *VecCSR) apply(y, x []float64, k, lo, hi int) {
	if k == 1 {
		vecCSRRowRange(f.rowPtr, f.colIdx, f.val, x, y, lo, hi)
		return
	}
	f.CSR.apply(y, x, k, lo, hi)
}

// oneColumn is embedded by the two formats whose single-vector loop
// reassociates the row sum (Vec-CSR, MKL-IE). Their fused tile does not, and
// a block product must not round differently because the block happens to
// be one column wide, so MultiplyMany at k = 1 stays on the sequential sum
// it has at every other k: the plain CSR kernel over the same storage and
// partition policy, dispatched by that view's own driver. Apply at k = 1 —
// and with it SpMV and SpMVParallel — is the single-vector loop.
type oneColumn struct {
	wide  Delegates
	plain *CSR
}

func oneColumnOf(c *CSR) oneColumn {
	plain := csrOf(&matrix.CSR{Rows: c.rows, Cols: c.cols, RowPtr: c.rowPtr, ColIdx: c.colIdx, Val: c.val}, c.policy, c.tune)
	plain.bind(&plain, true)
	return oneColumn{wide: c.Delegates, plain: &plain}
}

// MultiplyMany implements Format.
func (o oneColumn) MultiplyMany(y, x []float64, k int) {
	if k == 1 {
		o.plain.MultiplyMany(y, x, 1)
		return
	}
	o.wide.MultiplyMany(y, x, k)
}

// BalCSR is CSR with nonzero-balanced row partitioning (the paper's
// "Balanced-CSR": nonzero balancing at row resolution).
type BalCSR struct {
	CSR
}

// NewBalCSR builds the balanced-CSR format.
func NewBalCSR(m *matrix.CSR) *BalCSR { return newBalCSR(m, Tuning{}) }

func newBalCSR(m *matrix.CSR, t Tuning) *BalCSR {
	f := &BalCSR{csrOf(m, sched.NNZBalanced, t)}
	f.bind(f, true)
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
	oneColumn
	vectorize bool
	balance   bool
}

// Inspection thresholds: rows shorter than vecMinRow on average do not repay
// unrolling; skew above balMinSkew makes row blocks lose to nnz balancing.
const (
	vecMinRow  = 8.0
	balMinSkew = 4.0
)

// NewInspectorCSR builds the inspector-executor CSR, analyzing the matrix.
func NewInspectorCSR(m *matrix.CSR) *InspectorCSR { return newInspectorCSR(m, Tuning{}) }

func newInspectorCSR(m *matrix.CSR, t Tuning) *InspectorCSR {
	f := &InspectorCSR{CSR: csrOf(m, sched.RowBlocks, t)}
	avg := m.AvgRowNNZ()
	f.vectorize = avg >= vecMinRow
	if avg > 0 {
		skew := (float64(m.MaxRowNNZ()) - avg) / avg
		f.balance = skew > balMinSkew
	}
	if f.balance {
		f.policy = sched.NNZBalanced
	}
	f.bind(f, true)
	f.oneColumn = oneColumnOf(&f.CSR)
	return f
}

// Name implements Format.
func (f *InspectorCSR) Name() string { return "MKL-IE" }

// Traits implements Format.
func (f *InspectorCSR) Traits() Traits {
	t := f.CSR.Traits()
	t.Preprocessed = true
	t.Vectorizable = f.vectorize
	if f.balance {
		t.Balancing = NNZGranular
	}
	return t
}

// apply runs the inspected single-vector strategy; at k > 1 the fused tile
// supersedes the vectorize choice (register-level parallelism comes from
// the tile regardless of row length).
func (f *InspectorCSR) apply(y, x []float64, k, lo, hi int) {
	if k == 1 && f.vectorize {
		vecCSRRowRange(f.rowPtr, f.colIdx, f.val, x, y, lo, hi)
		return
	}
	f.CSR.apply(y, x, k, lo, hi)
}
