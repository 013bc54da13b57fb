package simd

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// flushToGuard copies src into fresh pages so that it ends flush against a
// PROT_NONE page: one byte read past the slice end faults.
func flushToGuard[T int32 | float64](t *testing.T, src []T) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := len(src) * int(unsafe.Sizeof(src[0]))
	data := (size + page - 1) / page * page
	b, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(b) })
	if err := syscall.Mprotect(b[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	dst := unsafe.Slice((*T)(unsafe.Pointer(&b[data-size])), len(src))
	copy(dst, src)
	return dst
}

// TestCSRRowRangeTailsStayInBounds runs the index-trust row-range kernel
// of every tier over matrices whose rowPtr, idx, val and y each end flush
// against an unmapped page, with a last row of every length from empty
// (its entry address is one past the slices) to beyond both tiers' group
// widths: a tail load that is not fault-suppressed dies with SIGSEGV
// here instead of silently reading a neighbour's bytes.
func TestCSRRowRangeTailsStayInBounds(t *testing.T) {
	defer SetLevel(SetLevel("scalar"))
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(12))
	x := randVec(rng, 512)
	for _, tier := range reachableTiers() {
		SetLevel(tier)
		for last := 0; last <= 17; last++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s, last row of %d: %v", tier, last, r)
					}
				}()
				m := csrOfLens(rng, []int{5, 0, last}, len(x))
				rowPtr, idx, val := flushToGuard(t, m.rowPtr), flushToGuard(t, m.idx), flushToGuard(t, m.val)
				y := flushToGuard(t, make([]float64, 3))
				CSRRowRange(rowPtr, idx, val, x, y, 0, 3)
				want, mag := m.seqRow(2, x)
				if !(math.Abs(y[2]-want) <= dotBound(last, mag)) {
					t.Fatalf("%s, last row of %d: %v, want %v", tier, last, y[2], want)
				}
			}()
		}
	}
}
