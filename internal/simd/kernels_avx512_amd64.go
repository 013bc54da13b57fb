package simd

// AVX-512F kernel entry points (kernels_avx512_amd64.s). All of them
// trust their index arguments — see the package's index-trust contract.
// Lane-unaligned tails are handled with opmask-predicated loads, gathers
// and stores (no scalar remainder loop for the gather kernels).
// Accumulation order: axpyGather, laneDot8 and the two 8-wide tiles
// preserve the scalar order (separate VMULPD/VADDPD, independent lanes);
// csrRowRange (masked short rows, 16-partial-sum FMA long rows) and bcsr2x2
// (four blocks per iteration, FMA) reassociate with the documented bound.

//go:noescape
func csrRowRangeAVX512(rowPtr, idx *int32, val, x, y *float64, lo, hi int)

//go:noescape
func axpyGatherAVX512(y, val *float64, idx *int32, x *float64, n int)

//go:noescape
func laneDot8AVX512(val *float64, idx *int32, x *float64, stride, n int) (sums [8]float64)

//go:noescape
func bcsr2x2AVX512(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)

//go:noescape
func dotBcastTile8AVX512(val *float64, idx *int32, x *float64, stride, n, k int) (dst [8]float64)

//go:noescape
func bcsr2x2Tile8AVX512(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64)
