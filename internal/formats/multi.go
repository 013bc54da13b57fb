package formats

// Multi-vector SpMV (SpMM): every format multiplies a block of k dense
// right-hand sides at once via Format.Apply with k > 1. Single-vector SpMV is
// memory-bound — each matrix entry is loaded to feed exactly one FMA — so
// the fused kernels here stream the matrix once per register tile of 4
// vectors, reusing every loaded (value, column) pair k times the same way
// wide-SIMD formats reuse row structure (Kreutzer et al., SELL-C-sigma).
//
// Layout: X and Y are row-major blocks, k values per matrix column/row.
// X[c*k+t] is vector t's entry for matrix column c, so one nonzero's k
// x-operands are contiguous — a single gathered cache line serves the
// whole tile — and Y[r*k:(r+1)*k] is written once per row.
//
// The register tile is 4 wide (k unrolled in blocks of 4, tail of 1-3
// handled separately): 4 accumulators hide the FP-add latency chain
// without spilling, and the tile's x operands fit one 256-bit vector.
//
// Rounding contract: every fused kernel computes each output element as a
// sequential mul-then-add sum in entry order, bit-identical across dispatch
// tiers. k = 1 is the format's single-vector kernel whatever the entry
// point; where that kernel reassociates (the dot-gather of Vec-CSR and
// MKL-IE, BCSR 2x2 on the AVX-512 rung) two computations of an element
// agree to the dot product's forward bound, 2*n*2^-53*sum_j |a_ij*x_j| with
// n the row's stored entries (matrix.CSR.WithinDotBound) — not to a
// tolerance relative to the result, which is wrong where a row cancels.
//
// Formats off the hot path (CSR5, SparseX) go through the driver's
// byColumn fallback: one single-vector dispatch per vector, with
// gather/scatter between the row-major block and contiguous temporaries.

import "repro/internal/simd"

// multiTile is the register-tile width of the fused kernels: k is unrolled
// in blocks of this many vectors.
const multiTile = 4

// multiTile8 is the wide register tile used when the dispatched SIMD width
// is 8 (AVX-512): one ZMM register holds the whole tile's x operands. The
// wide tile is a per-instance build input — see Tuning.NarrowTiles —
// because doubling the tile halves the number of live accumulator sets and
// can lose to the 4-wide tile on matrices with short rows.
const multiTile8 = 8

// simdMinN is the minimum inner-loop trip count at which the per-row and
// per-slab dispatched micro-kernels (internal/simd) beat the inlined scalar
// loops. Below it the indirect call and gather setup cost more than the
// vector width saves, so call sites keep the scalar path regardless of
// dispatch state. (simd.CSRRowRange is entered per row range: not gated.)
const simdMinN = 8

// ladder is the fused row kernel of every format that stores a row as a
// strided (value, column) stream — the CSR family (stride 1), ELL and HYB's
// ELL part (stride rows) and SELL-C-sigma (stride C) — holding what the rows
// of one range call share: the format's arrays, the k-wide blocks, and the
// two switches resolved once (are the dispatched micro-kernels live, and
// does this instance take the 8-vector tile on top of them).
type ladder struct {
	val           []float64
	col           []int32
	x, y          []float64
	stride, k     int
	wide, useSIMD bool
}

func (t Tuning) ladder(val []float64, col []int32, x, y []float64, stride, k int) ladder {
	useSIMD := simd.Enabled()
	wide := !t.NarrowTiles && useSIMD && simd.Width() >= 8
	return ladder{val, col, x, y, stride, k, wide, useSIMD}
}

// bcastRow writes one row of the k-wide product,
//
//	y[yAt+t] = sum over j in [0, n) of val[at+j*stride] * x[col[at+j*stride]*k + t]
//
// for t in [0, k). The stream is walked once per register tile with the
// tile's partial sums in registers: the dispatched 8-vector tile when wide,
// then the dispatched 4-vector tile (both only for n >= simdMinN, and only
// when useSIMD), then the inlined 4-vector tile, then one pass over the 1-3
// vector tail. Every rung computes each element as an independent sequential
// mul-then-add sum in entry order, so which rung a tile lands on never
// changes a bit. n = 0 writes k zeros and touches neither val nor col.
func (l *ladder) bcastRow(yAt, at, n int) {
	val, col, x, stride, k := l.val, l.col, l.x, l.stride, l.k
	dst := l.y[yAt : yAt+k : yAt+k]
	t := 0
	if l.useSIMD && n >= simdMinN {
		if l.wide {
			for ; t+multiTile8 <= k; t += multiTile8 {
				d := simd.DotBcastTile8(val[at:], col[at:], x[t:], stride, n, k)
				copy(dst[t:t+multiTile8], d[:])
			}
		}
		for ; t+multiTile <= k; t += multiTile {
			d := simd.DotBcastTile(val[at:], col[at:], x[t:], stride, n, k)
			dst[t], dst[t+1], dst[t+2], dst[t+3] = d[0], d[1], d[2], d[3]
		}
	}
	end := at + n*stride
	for ; t+multiTile <= k; t += multiTile {
		var s0, s1, s2, s3 float64
		for j := at; j < end; j += stride {
			vj := val[j]
			xb := x[int(col[j])*k+t : int(col[j])*k+t+4 : int(col[j])*k+t+4]
			s0 += vj * xb[0]
			s1 += vj * xb[1]
			s2 += vj * xb[2]
			s3 += vj * xb[3]
		}
		dst[t], dst[t+1], dst[t+2], dst[t+3] = s0, s1, s2, s3
	}
	switch k - t {
	case 3:
		var s0, s1, s2 float64
		for j := at; j < end; j += stride {
			vj := val[j]
			xb := x[int(col[j])*k+t : int(col[j])*k+t+3 : int(col[j])*k+t+3]
			s0 += vj * xb[0]
			s1 += vj * xb[1]
			s2 += vj * xb[2]
		}
		dst[t], dst[t+1], dst[t+2] = s0, s1, s2
	case 2:
		var s0, s1 float64
		for j := at; j < end; j += stride {
			vj := val[j]
			xb := x[int(col[j])*k+t : int(col[j])*k+t+2 : int(col[j])*k+t+2]
			s0 += vj * xb[0]
			s1 += vj * xb[1]
		}
		dst[t], dst[t+1] = s0, s1
	case 1:
		var s0 float64
		for j := at; j < end; j += stride {
			s0 += val[j] * x[int(col[j])*k+t]
		}
		dst[t] = s0
	}
}
