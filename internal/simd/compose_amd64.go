package simd

import "unsafe"

// AVX2 implementations of the 8-wide dispatch entries, composed from two
// 4-lane halves of the native AVX2 kernels. They exist so call sites can
// be tier-agnostic: a format that asks for an 8-lane group or an 8-vector
// tile gets native ZMM code on the AVX-512 tier and these bit-identical
// compositions on AVX2 (each half preserves its scalar accumulation
// order, and the halves touch disjoint lanes).

func addF64(p *float64, n int) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(p), uintptr(n)*8))
}

func addI32(p *int32, n int) *int32 {
	return (*int32)(unsafe.Add(unsafe.Pointer(p), uintptr(n)*4))
}

func laneDot8AVX2(val *float64, idx *int32, x *float64, stride, n int) (sums [8]float64) {
	a := laneDot4AVX2(val, idx, x, stride, n)
	b := laneDot4AVX2(addF64(val, 4), addI32(idx, 4), x, stride, n)
	copy(sums[:4], a[:])
	copy(sums[4:], b[:])
	return sums
}

var dotBcastTile8AVX2, dotBcastTile8AVX2U16 = tile8Of(dotBcastTileAVX2), tile8Of(dotBcastTileAVX2U16)

func tile8Of[I Index](tile4 func(val *float64, idx *I, x *float64, stride, n, k int) [4]float64) func(val *float64, idx *I, x *float64, stride, n, k int) [8]float64 {
	return func(val *float64, idx *I, x *float64, stride, n, k int) (dst [8]float64) {
		a := tile4(val, idx, x, stride, n, k)
		b := tile4(val, idx, addF64(x, 4), stride, n, k)
		copy(dst[:4], a[:])
		copy(dst[4:], b[:])
		return dst
	}
}

func bcsr2x2Tile8AVX2(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64) {
	loA, hiA := bcsr2x2TileAVX2(val, blkCol, x, n, k)
	loB, hiB := bcsr2x2TileAVX2(val, blkCol, addF64(x, 4), n, k)
	copy(lo[:4], loA[:])
	copy(lo[4:], loB[:])
	copy(hi[:4], hiA[:])
	copy(hi[4:], hiB[:])
	return lo, hi
}
