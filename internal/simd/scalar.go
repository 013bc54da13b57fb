package simd

import "unsafe"

// The dispatch table. Entries point at the portable scalar references
// below until an architecture init (detect) installs accelerated
// implementations. The pointer signatures mirror the assembly stubs so
// one table serves both.
var (
	csrRowRange   func(rowPtr, idx *int32, val, x, y *float64, lo, hi int)                    = csrRowRangeScalar
	axpyGather    func(y, val *float64, idx *int32, x *float64, n int)                        = axpyGatherScalar
	laneDot4      func(val *float64, idx *int32, x *float64, stride, n int) [4]float64        = laneDot4Scalar
	laneDot8      func(val *float64, idx *int32, x *float64, stride, n int) [8]float64        = laneDot8Scalar
	bcsr2x2       func(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)       = bcsr2x2Scalar
	dotBcastTile  func(val *float64, idx *int32, x *float64, stride, n, k int) [4]float64     = dotBcastTileScalar
	dotBcastTile8 func(val *float64, idx *int32, x *float64, stride, n, k int) [8]float64     = dotBcastTile8Scalar
	bcsr2x2Tile   func(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64) = bcsr2x2TileScalar
	bcsr2x2Tile8  func(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64) = bcsr2x2Tile8Scalar
)

// The scalar references reproduce the format kernels' accumulation order
// exactly (they are the contract the assembly is tested against; for the
// reassociating row-range kernels, the sequential sum they are bounded
// against), just behind the pointer ABI of the table. unsafe.Slice only
// rebuilds the slice headers the exported wrappers flattened.

func csrRowRangeScalar(rowPtr, idx *int32, val, x, y *float64, lo, hi int) {
	rp, yy := unsafe.Slice(rowPtr, hi+1), unsafe.Slice(y, hi)
	v, c := unsafe.Slice(val, rp[hi]), unsafe.Slice(idx, rp[hi])
	for i := lo; i < hi; i++ {
		sum := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			sum += v[j] * *ptrAt(x, c[j])
		}
		yy[i] = sum
	}
}

func axpyGatherScalar(y, val *float64, idx *int32, x *float64, n int) {
	yy := unsafe.Slice(y, n)
	v := unsafe.Slice(val, n)
	c := unsafe.Slice(idx, n)
	for j := range yy {
		yy[j] += v[j] * *ptrAt(x, c[j])
	}
}

func laneDot4Scalar(val *float64, idx *int32, x *float64, stride, n int) (sums [4]float64) {
	v := unsafe.Slice(val, (n-1)*stride+4)
	c := unsafe.Slice(idx, (n-1)*stride+4)
	for j := 0; j < n; j++ {
		at := j * stride
		sums[0] += v[at] * *ptrAt(x, c[at])
		sums[1] += v[at+1] * *ptrAt(x, c[at+1])
		sums[2] += v[at+2] * *ptrAt(x, c[at+2])
		sums[3] += v[at+3] * *ptrAt(x, c[at+3])
	}
	return sums
}

func laneDot8Scalar(val *float64, idx *int32, x *float64, stride, n int) (sums [8]float64) {
	v := unsafe.Slice(val, (n-1)*stride+8)
	c := unsafe.Slice(idx, (n-1)*stride+8)
	for j := 0; j < n; j++ {
		at := j * stride
		for l := 0; l < 8; l++ {
			sums[l] += v[at+l] * *ptrAt(x, c[at+l])
		}
	}
	return sums
}

func bcsr2x2Scalar(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64) {
	v := unsafe.Slice(val, n*4)
	bc := unsafe.Slice(blkCol, n)
	for b := 0; b < n; b++ {
		x0 := *ptrAt(x, bc[b]*2)
		x1 := *ptrAt(x, bc[b]*2+1)
		off := b * 4
		s0 += v[off]*x0 + v[off+1]*x1
		s1 += v[off+2]*x0 + v[off+3]*x1
	}
	return s0, s1
}

func dotBcastTileScalar(val *float64, idx *int32, x *float64, stride, n, k int) (dst [4]float64) {
	v := unsafe.Slice(val, (n-1)*stride+1)
	c := unsafe.Slice(idx, (n-1)*stride+1)
	for j := 0; j < n; j++ {
		vj := v[j*stride]
		xb := unsafe.Slice(ptrAt(x, c[j*stride]*int32(k)), 4)
		dst[0] += vj * xb[0]
		dst[1] += vj * xb[1]
		dst[2] += vj * xb[2]
		dst[3] += vj * xb[3]
	}
	return dst
}

func bcsr2x2TileScalar(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64) {
	v := unsafe.Slice(val, n*4)
	bc := unsafe.Slice(blkCol, n)
	for b := 0; b < n; b++ {
		base := int(bc[b]) * 2 * k
		x0 := unsafe.Slice(ptrAt(x, int32(base)), 4)
		x1 := unsafe.Slice(ptrAt(x, int32(base+k)), 4)
		off := b * 4
		v0, v1, v2, v3 := v[off], v[off+1], v[off+2], v[off+3]
		for t := 0; t < 4; t++ {
			lo[t] += v0*x0[t] + v1*x1[t]
			hi[t] += v2*x0[t] + v3*x1[t]
		}
	}
	return lo, hi
}

func dotBcastTile8Scalar(val *float64, idx *int32, x *float64, stride, n, k int) (dst [8]float64) {
	v := unsafe.Slice(val, (n-1)*stride+1)
	c := unsafe.Slice(idx, (n-1)*stride+1)
	for j := 0; j < n; j++ {
		vj := v[j*stride]
		xb := unsafe.Slice(ptrAt(x, c[j*stride]*int32(k)), 8)
		for t := 0; t < 8; t++ {
			dst[t] += vj * xb[t]
		}
	}
	return dst
}

func bcsr2x2Tile8Scalar(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64) {
	v := unsafe.Slice(val, n*4)
	bc := unsafe.Slice(blkCol, n)
	for b := 0; b < n; b++ {
		base := int(bc[b]) * 2 * k
		x0 := unsafe.Slice(ptrAt(x, int32(base)), 8)
		x1 := unsafe.Slice(ptrAt(x, int32(base+k)), 8)
		off := b * 4
		v0, v1, v2, v3 := v[off], v[off+1], v[off+2], v[off+3]
		for t := 0; t < 8; t++ {
			lo[t] += v0*x0[t] + v1*x1[t]
			hi[t] += v2*x0[t] + v3*x1[t]
		}
	}
	return lo, hi
}

// ptrAt indexes a flattened float64 base pointer (the x vector) by a
// 32-bit column index.
func ptrAt(x *float64, i int32) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(x), uintptr(i)*8))
}
