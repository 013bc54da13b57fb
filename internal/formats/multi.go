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
// Formats off the hot path (CSR5, SparseX, VSL) go through the driver's
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

// simdMinN is the minimum inner-loop trip count at which the dispatched
// micro-kernels (internal/simd) beat the inlined scalar loops. Below it —
// tridiagonal-style rows, near-empty chunks — the indirect call and gather
// setup cost more than the vector width saves, so call sites keep the
// scalar path regardless of dispatch state.
const simdMinN = 8

// csrRowRangeMulti is the fused CSR kernel: rows [lo, hi) of the k-wide
// product. Each row's (value, column) stream is walked once per 4-vector
// tile with the tile's partial sums in registers, so every loaded nonzero
// feeds 4 FMAs; the 1-3 vector tail reruns the stream with a narrower
// accumulator set. wide enables the 8-vector tile when the dispatched
// SIMD width is 8.
func csrRowRangeMulti(rowPtr, colIdx []int32, val, x, y []float64, k, lo, hi int, wide bool) {
	useSIMD := simd.Enabled()
	wide = wide && useSIMD && simd.Width() >= 8
	for i := lo; i < hi; i++ {
		start := int(rowPtr[i])
		end := int(rowPtr[i+1])
		c := colIdx[start:end:end]
		v := val[start:end:end]
		v = v[:len(c)]
		yi := y[i*k : i*k+k : i*k+k]
		t := 0
		if wide && len(c) >= simdMinN {
			for ; t+multiTile8 <= k; t += multiTile8 {
				d := simd.DotBcastTile8(v, c, x[t:], 1, len(c), k)
				copy(yi[t:t+multiTile8], d[:])
			}
		}
		if useSIMD && len(c) >= simdMinN {
			// Dispatched path: broadcast-tile over the row's entry stream
			// (stride 1) — bit-identical per tile vector.
			for ; t+multiTile <= k; t += multiTile {
				d := simd.DotBcastTile(v, c, x[t:], 1, len(c), k)
				yi[t], yi[t+1], yi[t+2], yi[t+3] = d[0], d[1], d[2], d[3]
			}
		}
		for ; t+multiTile <= k; t += multiTile {
			var s0, s1, s2, s3 float64
			for j, cj := range c {
				vj := v[j]
				xb := x[int(cj)*k+t : int(cj)*k+t+4 : int(cj)*k+t+4]
				s0 += vj * xb[0]
				s1 += vj * xb[1]
				s2 += vj * xb[2]
				s3 += vj * xb[3]
			}
			yi[t], yi[t+1], yi[t+2], yi[t+3] = s0, s1, s2, s3
		}
		switch k - t {
		case 3:
			var s0, s1, s2 float64
			for j, cj := range c {
				vj := v[j]
				base := int(cj)*k + t
				s0 += vj * x[base]
				s1 += vj * x[base+1]
				s2 += vj * x[base+2]
			}
			yi[t], yi[t+1], yi[t+2] = s0, s1, s2
		case 2:
			var s0, s1 float64
			for j, cj := range c {
				vj := v[j]
				base := int(cj)*k + t
				s0 += vj * x[base]
				s1 += vj * x[base+1]
			}
			yi[t], yi[t+1] = s0, s1
		case 1:
			var s0 float64
			for j, cj := range c {
				s0 += v[j] * x[int(cj)*k+t]
			}
			yi[t] = s0
		}
	}
}
