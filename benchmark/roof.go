package main

import (
	"runtime"
	"sync"
	"time"
)

// roof is the host's measured memory roofline, taken in the same run as
// the kernel it is read against.
type roof struct {
	TriadGBps    float64 // one thread, best pass
	TriadParGBps float64 // C threads, best pass
	GatherNs     float64 // dependent-load latency
	ArrayBytes   int64   // each of the three triad arrays
	ChaseBytes   int64   // pointer-chase arena
}

// roofArrayCap bounds each triad array. First touch of fresh guest memory
// is not free: on the ballooned 2-vCPU VM this benchmark was written on,
// whose /sys reports the host's whole 260 MB L3, touching 1 GB took 36 s.
// A cap keeps the roof affordable inside a run; when it binds, the sizes
// printed beside pct_roof show that the array is below 4x LLC.
const roofArrayCap = 128 << 20

// roofArrayBytes sizes each triad array at four times the last-level
// cache, capped at an eighth of memory (the three arrays always fit) and
// at roofArrayCap.
func roofArrayBytes(llc, mem int64) int64 {
	n := min(4*llc, roofArrayCap)
	if mem > 0 {
		n = min(n, mem/8)
	}
	return n &^ 63
}

// triadPass runs a[i] = b[i] + s*c[i].
func triadPass(a, b, c []float64, s float64) {
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}

// parallelOver splits [0, n) into threads contiguous parts.
func parallelOver(n, threads int, f func(lo, hi int)) {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo, hi := n*t/threads, n*(t+1)/threads
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}

// measureRoof runs the benchmark's own STREAM triad and a dependent
// pointer chase. Triad traffic is counted the STREAM way, 24 bytes per
// element (two reads and one write, no write-allocate), and the best of
// passes passes is reported as STREAM does. The chase walks one random
// cycle over one node per cache line, so every load misses and none can
// be issued before the previous one returns.
func measureRoof(llc, mem int64, threads, passes int, seed int64) roof {
	r := roof{ArrayBytes: roofArrayBytes(llc, mem)}
	n := int(r.ArrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallelOver(n, threads, func(lo, hi int) { // first touch
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := func(threads int) float64 {
		var gbps float64
		for p := 0; p < passes; p++ {
			t0 := time.Now()
			parallelOver(n, threads, func(lo, hi int) { triadPass(a[lo:hi], b[lo:hi], c[lo:hi], 3) })
			gbps = max(gbps, 24*float64(n)/time.Since(t0).Seconds()/1e9)
		}
		return gbps
	}
	r.TriadGBps = best(1)
	r.TriadParGBps = best(threads)
	a, b, c = nil, nil, nil
	runtime.GC() // the arena below reuses the arrays' pages instead of faulting fresh ones

	// One node per 64-byte line: next[i] is built as a single cycle
	// (Sattolo) in a compact index array, then spread one per line.
	const lineWords = 8
	nodes := int(r.ArrayBytes / 64)
	r.ChaseBytes = int64(nodes) * 64
	next := make([]int32, nodes)
	for i := range next {
		next[i] = int32(i)
	}
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := nodes - 1; i > 0; i-- {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		j := int(state % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	arena := make([]int64, nodes*lineWords)
	for i, nx := range next {
		arena[i*lineWords] = int64(nx) * lineWords
	}
	next = nil
	steps := min(nodes, 1<<21)
	at := int64(0)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		at = arena[at]
	}
	r.GatherNs = float64(time.Since(t0).Nanoseconds()) / float64(steps)
	sink = at
	return r
}

// sink keeps measured loops from being optimised away.
var sink int64
