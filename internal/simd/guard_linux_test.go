package simd

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// flushToGuard copies src into fresh pages so that it ends flush against a
// PROT_NONE page: one byte read past the slice end faults.
func flushToGuard[T int32 | uint16 | float64](t *testing.T, src []T) []T {
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

// TestCSRRowRangeTailsStayInBounds runs the index-trust CSR kernel of
// every tier, at k = 1 and over the lane-masked tile widths, over matrices
// whose rowPtr, idx, val, x and y each end flush against an unmapped page,
// with a last row of every length from empty (its entry address is one
// past the slices) to beyond both tiers' group widths: a tail load that
// is not fault-suppressed dies with SIGSEGV here instead of silently
// reading a neighbour's bytes. The uint16 indices end at the page with
// exactly their U16Slack tail: what AVX2's unmasked short-row load may
// read past a row is that slack and no more.
func TestCSRRowRangeTailsStayInBounds(t *testing.T) {
	defer SetLevel(SetLevel("scalar"))
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(12))
	const cols = 512
	for _, tier := range reachableTiers() {
		SetLevel(tier)
		for _, k := range []int{1, 3, 5} {
			x := flushToGuard(t, randVec(rng, cols*k))
			for last := 0; last <= 17; last++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s k=%d, last row of %d: %v", tier, k, last, r)
						}
					}()
					m := csrOfLens(rng, []int{5, 0, last}, cols)
					m.idx[len(m.idx)-1] = cols - 1 // the last column's x ends at the page
					rowPtr, idx, val := flushToGuard(t, m.rowPtr), flushToGuard(t, m.idx), flushToGuard(t, m.val)
					want := make([]float64, 3*k)
					CSRRowRangeGo(m.rowPtr, m.idx, m.val, x, want, 0, 3, k)
					y := flushToGuard(t, make([]float64, 3*k))
					CSRRowRange(rowPtr, idx, val, x, y, 0, 3, k)
					y16 := flushToGuard(t, make([]float64, 3*k))
					CSRRowRange(rowPtr, flushToGuard(t, narrowIdx(m.idx)), val, x, y16, 0, 3, k)
					for e := range want {
						if y[e] != want[e] || y16[e] != want[e] {
							t.Fatalf("%s k=%d, last row of %d: y[%d] = %v (uint16 %v), want %v", tier, k, last, e, y[e], y16[e], want[e])
						}
					}
				}()
			}
		}
	}
}
