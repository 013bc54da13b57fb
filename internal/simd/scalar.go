package simd

import "unsafe"

// The dispatch table. Entries point at the portable scalar references
// below until an architecture init (detect) installs accelerated
// implementations. The pointer signatures mirror the assembly stubs so
// one table serves both. A U16 entry (uint16 indices, the same asm macro
// as its int32 twin) is always installed at its twin's tier.
var (
	csrRowRange      func(rowPtr, idx *int32, val, x, y *float64, lo, hi int)                    = csrRowRangeScalar[int32]
	csrRowRangeU16   func(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)            = csrRowRangeScalar[uint16]
	axpyGather       func(y, val *float64, idx *int32, x *float64, n int)                        = axpyGatherScalar
	laneDot4         func(val *float64, idx *int32, x *float64, stride, n int) [4]float64        = laneDot4Scalar
	laneDot8         func(val *float64, idx *int32, x *float64, stride, n int) [8]float64        = laneDot8Scalar
	bcsr2x2          func(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)       = bcsr2x2Scalar
	dotBcastTile     func(val *float64, idx *int32, x *float64, stride, n, k int) [4]float64     = dotBcastTileScalar[int32]
	dotBcastTileU16  func(val *float64, idx *uint16, x *float64, stride, n, k int) [4]float64    = dotBcastTileScalar[uint16]
	dotBcastTile8    func(val *float64, idx *int32, x *float64, stride, n, k int) [8]float64     = dotBcastTile8Scalar[int32]
	dotBcastTile8U16 func(val *float64, idx *uint16, x *float64, stride, n, k int) [8]float64    = dotBcastTile8Scalar[uint16]
	bcsr2x2Tile      func(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64) = bcsr2x2TileScalar
	bcsr2x2Tile8     func(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64) = bcsr2x2Tile8Scalar
)

// The scalar references reproduce the format kernels' accumulation order
// exactly (they are the contract the assembly is tested against; for the
// reassociating row-range kernels, the sequential sum they are bounded
// against), just behind the pointer ABI of the table. unsafe.Slice only
// rebuilds the slice headers the exported wrappers flattened.

func csrRowRangeScalar[I Index](rowPtr *int32, idx *I, val, x, y *float64, lo, hi int) {
	rp, yy := unsafe.Slice(rowPtr, hi+1), unsafe.Slice(y, hi)
	v, c := unsafe.Slice(val, rp[hi]), unsafe.Slice(idx, rp[hi])
	for i := lo; i < hi; i++ {
		sum := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			sum += v[j] * *ptrAt(x, int(c[j]))
		}
		yy[i] = sum
	}
}

func axpyGatherScalar(y, val *float64, idx *int32, x *float64, n int) {
	yy := unsafe.Slice(y, n)
	v := unsafe.Slice(val, n)
	c := unsafe.Slice(idx, n)
	for j := range yy {
		yy[j] += v[j] * *ptrAt(x, int(c[j]))
	}
}

// The 4- and 8-lane twins share one body: their lanes are independent.
func laneDot4Scalar(val *float64, idx *int32, x *float64, stride, n int) (s [4]float64) {
	laneDotScalar(s[:], val, idx, x, stride, n)
	return s
}

func laneDot8Scalar(val *float64, idx *int32, x *float64, stride, n int) (s [8]float64) {
	laneDotScalar(s[:], val, idx, x, stride, n)
	return s
}

func laneDotScalar(sums []float64, val *float64, idx *int32, x *float64, stride, n int) {
	v := unsafe.Slice(val, (n-1)*stride+len(sums))
	c := unsafe.Slice(idx, (n-1)*stride+len(sums))
	for j := 0; j < n; j++ {
		at := j * stride
		for l := range sums {
			sums[l] += v[at+l] * *ptrAt(x, int(c[at+l]))
		}
	}
}

func bcsr2x2Scalar(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64) {
	v := unsafe.Slice(val, n*4)
	bc := unsafe.Slice(blkCol, n)
	for b := 0; b < n; b++ {
		x0 := *ptrAt(x, int(bc[b])*2)
		x1 := *ptrAt(x, int(bc[b])*2+1)
		off := b * 4
		s0 += v[off]*x0 + v[off+1]*x1
		s1 += v[off+2]*x0 + v[off+3]*x1
	}
	return s0, s1
}

func dotBcastTileScalar[I Index](val *float64, idx *I, x *float64, stride, n, k int) (d [4]float64) {
	dotBcastScalar(d[:], val, idx, x, stride, n, k)
	return d
}

func dotBcastTile8Scalar[I Index](val *float64, idx *I, x *float64, stride, n, k int) (d [8]float64) {
	dotBcastScalar(d[:], val, idx, x, stride, n, k)
	return d
}

func dotBcastScalar[I Index](dst []float64, val *float64, idx *I, x *float64, stride, n, k int) {
	v := unsafe.Slice(val, (n-1)*stride+1)
	c := unsafe.Slice(idx, (n-1)*stride+1)
	for j := 0; j < n; j++ {
		vj := v[j*stride]
		xb := unsafe.Slice(ptrAt(x, int(c[j*stride])*k), len(dst))
		for t := range dst {
			dst[t] += vj * xb[t]
		}
	}
}

func bcsr2x2TileScalar(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64) {
	bcsr2x2TileScalarInto(lo[:], hi[:], val, blkCol, x, n, k)
	return lo, hi
}

func bcsr2x2Tile8Scalar(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64) {
	bcsr2x2TileScalarInto(lo[:], hi[:], val, blkCol, x, n, k)
	return lo, hi
}

func bcsr2x2TileScalarInto(lo, hi []float64, val *float64, blkCol *int32, x *float64, n, k int) {
	v := unsafe.Slice(val, n*4)
	bc := unsafe.Slice(blkCol, n)
	for b := 0; b < n; b++ {
		base := int(bc[b]) * 2 * k
		x0 := unsafe.Slice(ptrAt(x, base), len(lo))
		x1 := unsafe.Slice(ptrAt(x, base+k), len(lo))
		off := b * 4
		v0, v1, v2, v3 := v[off], v[off+1], v[off+2], v[off+3]
		for t := range lo {
			lo[t] += v0*x0[t] + v1*x1[t]
			hi[t] += v2*x0[t] + v3*x1[t]
		}
	}
}

// ptrAt indexes a flattened float64 base pointer (the x vector) by a
// column index.
func ptrAt(x *float64, i int) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(x), uintptr(i)*8))
}
