package simd

// AVX2/FMA kernel entry points (kernels_amd64.s). All of them trust their
// index arguments — see the package's index-trust contract — and preserve
// the scalar accumulation order except csrRowRangeAVX2 (masked short rows,
// multi-accumulator FMA long rows; documented forward bound).

//go:noescape
func csrRowRangeAVX2(rowPtr, idx *int32, val, x, y *float64, lo, hi int)

//go:noescape
func csrRowRangeAVX2U16(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)

//go:noescape
func axpyGatherAVX2(y, val *float64, idx *int32, x *float64, n int)

//go:noescape
func laneDot4AVX2(val *float64, idx *int32, x *float64, stride, n int) (sums [4]float64)

//go:noescape
func bcsr2x2AVX2(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)

//go:noescape
func dotBcastTileAVX2(val *float64, idx *int32, x *float64, stride, n, k int) (dst [4]float64)

//go:noescape
func dotBcastTileAVX2U16(val *float64, idx *uint16, x *float64, stride, n, k int) (dst [4]float64)

//go:noescape
func bcsr2x2TileAVX2(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64)
