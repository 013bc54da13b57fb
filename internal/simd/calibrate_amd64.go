package simd

import "time"

// Install-time calibration of the AVX-512 rung: 512-bit execution can
// downclock the core or stall on gather ports, so each ZMM kernel must
// beat its AVX2 counterpart on a synthetic workload before it replaces
// it ("win-or-stay-at-AVX2"). The workloads mirror the kernels' real
// shapes (streaming val/idx, gathered x resident in L1/L2); timings take
// the best of calRounds rounds so scheduler noise only ever flatters the
// incumbent. Winners are computed once per process: SetLevel re-installs
// from the cached verdicts.

const (
	calElems  = 4096 // streamed elements / blocks per timed call
	calXLen   = 2048 // gathered x vector length
	calRows   = 512  // rows per CSR row set (at most 16 entries each)
	calRounds = 3
	calIters  = 8
	// calMargin is the win threshold: the ZMM kernel must be at least this
	// factor of the AVX2 time (2% faster) — ties stay at AVX2.
	calMargin = 0.98
)

// calWin caches the per-kernel calibration verdicts (name -> ZMM wins).
var calWin map[string]bool

// calSink defeats dead-code elimination of the timed kernels.
var calSink float64

// calWinner reports (computing on first use) whether the named kernel's
// AVX-512 implementation beat AVX2 in calibration. Callers hold setMu or
// run during init.
func calWinner(name string) bool {
	if calWin == nil {
		calWin = calibrate()
	}
	return calWin[name]
}

func calibrate() map[string]bool {
	val := make([]float64, calElems*4) // 4x: the BCSR workloads read 4 doubles per block
	for i := range val {
		val[i] = 1.0 + float64(i%17)*0.25
	}
	const k = 8
	x := make([]float64, calXLen*k) // k-pitched so the tile kernels stay in range
	for i := range x {
		x[i] = 0.5 + float64(i%29)*0.125
	}
	idx := make([]int32, calElems*4)
	for i := range idx {
		idx[i] = int32((i * 37) % calXLen)
	}
	// Block columns for the BCSR kernels: base = bc*2*k + k + 8 must stay
	// inside x, so bound bc accordingly.
	bcBound := (calXLen*k - k - 8) / (2 * k)
	bc := make([]int32, calElems)
	for i := range bc {
		bc[i] = int32((i * 13) % bcBound)
	}

	// CSR rows of 1..16 entries in no learnable order, calIters row sets
	// over one stream, each timed call taking the next: the row-range
	// kernels differ most in trip-count branches per row, and the branch
	// predictors memorize one set of < 3 000 rows replayed (ZMM then reads
	// 0.95-1.1x YMM, against 1.6x on fresh rows, 1.26-1.41x on matrices).
	rowPtr := make([]int32, calIters*(calRows+1))
	for i, s := 1, uint32(1); i < len(rowPtr); i++ {
		if s = s*1664525 + 1013904223; i%(calRows+1) != 0 { // a set starts at 0
			rowPtr[i] = rowPtr[i-1] + 1 + int32(s>>24)%16
		}
	}
	y := make([]float64, len(rowPtr))
	set := 0
	nextSet := func() int { set++; return set % calIters * (calRows + 1) }

	lanes8 := calElems / 8 // strided rows for the 8-lane kernels

	cases := []struct {
		name string
		a, b func() // a: AVX2 incumbent, b: AVX-512 challenger
	}{
		{kernelNames[kCSRRowRange],
			func() { lo := nextSet(); csrRowRangeAVX2(&rowPtr[0], &idx[0], &val[0], &x[0], &y[0], lo, lo+calRows) },
			func() { lo := nextSet(); csrRowRangeAVX512(&rowPtr[0], &idx[0], &val[0], &x[0], &y[0], lo, lo+calRows) }},
		{kernelNames[kAxpyGather],
			func() { axpyGatherAVX2(&val[calElems], &val[0], &idx[0], &x[0], calElems) },
			func() { axpyGatherAVX512(&val[calElems], &val[0], &idx[0], &x[0], calElems) }},
		{kernelNames[kLaneDot8],
			func() { s := laneDot8AVX2(&val[0], &idx[0], &x[0], 8, lanes8); calSink += s[0] },
			func() { s := laneDot8AVX512(&val[0], &idx[0], &x[0], 8, lanes8); calSink += s[0] }},
		{kernelNames[kBcsr2x2],
			func() { s0, s1 := bcsr2x2AVX2(&val[0], &bc[0], &x[0], calElems); calSink += s0 + s1 },
			func() { s0, s1 := bcsr2x2AVX512(&val[0], &bc[0], &x[0], calElems); calSink += s0 + s1 }},
		{kernelNames[kTile8],
			func() { d := dotBcastTile8AVX2(&val[0], &idx[0], &x[0], 1, calElems, k); calSink += d[0] },
			func() { d := dotBcastTile8AVX512(&val[0], &idx[0], &x[0], 1, calElems, k); calSink += d[0] }},
		{kernelNames[kBcsrTile8],
			func() { lo, _ := bcsr2x2Tile8AVX2(&val[0], &bc[0], &x[0], calElems, k); calSink += lo[0] },
			func() { lo, _ := bcsr2x2Tile8AVX512(&val[0], &bc[0], &x[0], calElems, k); calSink += lo[0] }},
	}

	win := make(map[string]bool, len(cases))
	for _, c := range cases {
		c.a() // warm both paths (page-in, branch predictors, ZMM power-up)
		c.b()
		win[c.name] = float64(calTime(c.b)) <= calMargin*float64(calTime(c.a))
	}
	return win
}

// calTime returns the best-of-rounds duration of calIters calls.
func calTime(f func()) time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < calRounds; r++ {
		t0 := time.Now()
		for i := 0; i < calIters; i++ {
			f()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
