package formats

// Multi-vector SpMV (SpMM): every format multiplies a block of k dense
// right-hand sides at once via Format.Apply with k > 1. Single-vector SpMV is
// memory-bound — each matrix entry is loaded to feed exactly one FMA — so
// the fused kernels stream the matrix once per register tile of vectors,
// reusing every loaded (value, column) pair k times the same way wide-SIMD
// formats reuse row structure (Kreutzer et al., SELL-C-sigma). The CSR
// family's tile is simd.CSRRowRange's; the ladder below is the one of ELL,
// HYB and SELL-C-sigma.
//
// Layout: X and Y are row-major blocks, k values per matrix column/row.
// X[c*k+t] is vector t's entry for matrix column c, so one nonzero's k
// x-operands are contiguous — a single gathered cache line serves the
// whole tile — and Y[r*k:(r+1)*k] is written once per row.
//
// The ladder's register tile is 4 wide (k unrolled in blocks of 4, tail of
// 1-3 handled separately) and the tile's x operands fit one 256-bit
// vector.
//
// Rounding contract. Column t of a k-wide product is the single-vector
// product of vector t, bit for bit, for every format, on any lane count:
// a vector's answer depends neither on what it was batched with nor on
// how many lanes computed it. The fused kernels keep their k = 1 order in
// every tile lane (the CSR presets simd.CSRRowRangeGo's canonical order at
// every k, tier and worker count; ELL, HYB, SELL-C-sigma and COO
// sequential sums in entry order; BCSR d += (v0*x0 + v1*x1) per 2x2
// block), and the formats without one run by column. The formats that
// split rows (COO, Merge-CSR, CSR5) cut
// them only at units fixed at build (carryUnit): the piece a unit holds
// of a row begun earlier is summed from +0 in the unit's carry slot, and
// the driver adds the slots onto their rows serially in unit order after
// the dispatch, so lanes only decide who computes a unit, never a sum. Against the sequential reference every
// format agrees to the dot product's forward bound,
// 2*n*2^-53*sum_j |a_ij*x_j| with n the row's stored entries
// (matrix.CSR.WithinDotBound) — not to a tolerance relative to the
// result, which is wrong where a row cancels.
//
// Formats off the hot path (Merge-CSR, CSR5, SparseX) go through the
// driver's byColumn fallback: one single-vector dispatch per vector, with
// gather/scatter between the row-major block and contiguous temporaries.

import "repro/internal/simd"

// multiTile is the register-tile width of the fused kernels: k is unrolled
// in blocks of this many vectors.
const multiTile = 4

// multiTile8 is the wide register tile used when the dispatched SIMD width
// is 8 (AVX-512): one ZMM register holds the whole tile's x operands. Every
// fused kernel takes the widest tile the dispatch offers: against the
// 4-wide tile it measured a median 1.18x ahead over 192 cells, up to 2x on
// long rows, and the 4-wide tile won no cell beyond that cell's own spread
// (the tile-width table in docs/BENCHMARKS.md). The 4-wide tile still
// serves the k mod 8 >= 4 remainder.
const multiTile8 = 8

// simdMinN is the minimum inner-loop trip count at which the per-row and
// per-slab dispatched micro-kernels (internal/simd) beat the inlined scalar
// loops. Below it the indirect call and gather setup cost more than the
// vector width saves, so call sites keep the scalar path regardless of
// dispatch state.
const simdMinN = 8

// ladder is the fused row kernel of the formats that store a row as a
// strided (value, column) stream — ELL and HYB's ELL part (stride rows) and
// SELL-C-sigma (stride C) — holding what the rows of one range call share:
// the format's arrays, the k-wide blocks, and the two switches resolved
// once (are the dispatched micro-kernels live, and do they offer the
// 8-vector tile on top of them).
type ladder struct {
	val           []float64
	col           []int32
	x, y          []float64
	stride, k     int
	wide, useSIMD bool
}

func newLadder(val []float64, col []int32, x, y []float64, stride, k int) ladder {
	useSIMD := simd.Enabled()
	return ladder{val, col, x, y, stride, k, useSIMD && simd.Width() >= 8, useSIMD}
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
