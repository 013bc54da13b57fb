package simd

import (
	"math"
	"unsafe"
)

// The dispatch table. Entries point at the portable scalar references
// below until an architecture init (detect) installs accelerated
// implementations. The pointer signatures mirror the assembly stubs so
// one table serves both. A U16 entry (uint16 indices, the same asm macro
// as its int32 twin) is always installed at its twin's tier. The CSR
// entries stay nil off a tier: CSRRowRange runs CSRRowRangeGo then.
var (
	csrRowRange    func(rowPtr, idx *int32, val, x, y *float64, lo, hi int)
	csrRowRangeU16 func(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi int)
	csrTile        func(rowPtr, idx *int32, val, x, y *float64, lo, hi, k int)
	csrTileU16     func(rowPtr *int32, idx *uint16, val, x, y *float64, lo, hi, k int)
	axpyGather     func(y, val *float64, idx *int32, x *float64, n int)                        = axpyGatherScalar
	laneDot4       func(val *float64, idx *int32, x *float64, stride, n int) [4]float64        = laneDot4Scalar
	laneDot8       func(val *float64, idx *int32, x *float64, stride, n int) [8]float64        = laneDot8Scalar
	bcsr2x2        func(val *float64, blkCol *int32, x *float64, n int) (s0, s1 float64)       = bcsr2x2Scalar
	dotBcastTile   func(val *float64, idx *int32, x *float64, stride, n, k int) [4]float64     = dotBcastTileScalar
	dotBcastTile8  func(val *float64, idx *int32, x *float64, stride, n, k int) [8]float64     = dotBcastTile8Scalar
	bcsr2x2Tile    func(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [4]float64) = bcsr2x2TileScalar
	bcsr2x2Tile8   func(val *float64, blkCol *int32, x *float64, n, k int) (lo, hi [8]float64) = bcsr2x2Tile8Scalar
)

// CSRRowRangeGo is CSRRowRange in Go: the canonical CSR row order (see the
// package contract) with math.FMA, which every tier reproduces bit for
// bit, one pass over the rows per vector. It trusts the indices as the
// dispatched kernels do. The eight partial sums are unrolled locals in
// the row loop: an array indexed by j&7 runs about 1.4x slower, a call
// per row 1.2-1.5x on short rows.
func CSRRowRangeGo[I Index](rowPtr []int32, idx []I, val, x, y []float64, lo, hi, k int) {
	xp := unsafe.SliceData(x)
	for t := 0; t < k; t++ {
		end := int(rowPtr[lo])
		for i := lo; i < hi; i++ {
			start := end
			end = int(rowPtr[i+1])
			c, v := idx[start:end:end], val[start:end:end]
			v = v[:len(c)]
			var p0, p1, p2, p3, p4, p5, p6, p7 float64
			j := 0
			for ; j+8 <= len(c); j += 8 {
				c8, v8 := (*[8]I)(c[j:]), (*[8]float64)(v[j:])
				p0 = math.FMA(v8[0], *ptrAt(xp, int(c8[0])*k+t), p0)
				p1 = math.FMA(v8[1], *ptrAt(xp, int(c8[1])*k+t), p1)
				p2 = math.FMA(v8[2], *ptrAt(xp, int(c8[2])*k+t), p2)
				p3 = math.FMA(v8[3], *ptrAt(xp, int(c8[3])*k+t), p3)
				p4 = math.FMA(v8[4], *ptrAt(xp, int(c8[4])*k+t), p4)
				p5 = math.FMA(v8[5], *ptrAt(xp, int(c8[5])*k+t), p5)
				p6 = math.FMA(v8[6], *ptrAt(xp, int(c8[6])*k+t), p6)
				p7 = math.FMA(v8[7], *ptrAt(xp, int(c8[7])*k+t), p7)
			}
			switch c, v := c[j:], v[j:]; len(c) {
			case 7:
				p6 = math.FMA(v[6], *ptrAt(xp, int(c[6])*k+t), p6)
				fallthrough
			case 6:
				p5 = math.FMA(v[5], *ptrAt(xp, int(c[5])*k+t), p5)
				fallthrough
			case 5:
				p4 = math.FMA(v[4], *ptrAt(xp, int(c[4])*k+t), p4)
				fallthrough
			case 4:
				p3 = math.FMA(v[3], *ptrAt(xp, int(c[3])*k+t), p3)
				fallthrough
			case 3:
				p2 = math.FMA(v[2], *ptrAt(xp, int(c[2])*k+t), p2)
				fallthrough
			case 2:
				p1 = math.FMA(v[1], *ptrAt(xp, int(c[1])*k+t), p1)
				fallthrough
			case 1:
				p0 = math.FMA(v[0], *ptrAt(xp, int(c[0])*k+t), p0)
			}
			y[i*k+t] = ((p0 + p4) + (p2 + p6)) + ((p1 + p5) + (p3 + p7))
		}
	}
}

// The other scalar references reproduce the format kernels' accumulation
// order exactly (the contract the assembly is tested against) behind the
// pointer ABI of the table. unsafe.Slice only rebuilds the slice headers
// the exported wrappers flattened.

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

func dotBcastTileScalar(val *float64, idx *int32, x *float64, stride, n, k int) (d [4]float64) {
	dotBcastScalar(d[:], val, idx, x, stride, n, k)
	return d
}

func dotBcastTile8Scalar(val *float64, idx *int32, x *float64, stride, n, k int) (d [8]float64) {
	dotBcastScalar(d[:], val, idx, x, stride, n, k)
	return d
}

func dotBcastScalar(dst []float64, val *float64, idx *int32, x *float64, stride, n, k int) {
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
