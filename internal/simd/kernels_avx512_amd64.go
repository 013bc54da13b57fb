package simd

// AVX-512F kernel entry points (kernels_avx512_amd64.s). All of them
// trust their index arguments — see the package's index-trust contract.
// Lane-unaligned tails are handled with opmask-predicated loads, gathers
// and stores (no scalar remainder loop for the gather kernels).
// Accumulation order: csrRowRange and csrTile run CSRRowRangeGo's eight
// FMA partial sums; axpyGather, laneDot8 and the two 8-wide tiles preserve
// the scalar order (separate VMULPD/VADDPD, independent lanes). Every one
// is bit-identical to its AVX2 and scalar twins. bcsr.2x2 has no ZMM
// rung: AVX2 serves it on every accelerated host.

//go:noescape
func csrRowRangeAVX512(rowPtr, idx *int32, val, x, y *float64, lo, hi int)

//go:noescape
func csrRowRangeAVX512U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)

//go:noescape
func csrTileAVX512(rowPtr, idx *int32, val, x, y *float64, lo, hi, k int)

//go:noescape
func csrTileAVX512U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi, k int)

//go:noescape
func axpyGatherAVX512(y, val *float64, idx *int32, x *float64, n int)

//go:noescape
func laneDot8AVX512(val *float64, idx *int32, x *float64, stride, n int) (sums [8]float64)

//go:noescape
func dotBcastTile8AVX512(val *float64, idx *int32, x *float64, stride, n, k int) (dst [8]float64)

//go:noescape
func bcsr2x2Tile8AVX512(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64)

// The multiply codec's kernels (codec_avx512_amd64.s); they also need
// AVX-512 BW, VL and VBMI2.

//go:noescape
func scanPlainAVX512(b *byte, i, limit int, x *float64, n int, pow *[2]uint64) (count, end int)

//go:noescape
func appendPlainAVX512(dst, grp *byte, lay *uint32, n int) (written int)
