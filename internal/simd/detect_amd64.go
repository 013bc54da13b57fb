package simd

// Runtime CPU-feature detection via CPUID/XGETBV. golang.org/x/sys/cpu
// would do the same probing, but the repo carries no dependencies; the two
// instructions below are all the surface we need.

// cpuid executes CPUID with the given leaf/subleaf (detect_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask (requires the
// OSXSAVE CPUID bit, which the caller checks first).
func xgetbv() (eax, edx uint32)

func detect() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		bitFMA     = 1 << 12
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	hasAVX := ecx1&bitAVX != 0
	hasFMA := ecx1&bitFMA != 0
	// AVX registers are usable only when the OS saves/restores YMM state:
	// XCR0 bits 1 (SSE) and 2 (YMM). AVX-512 additionally needs bits 5-7
	// (opmask, ZMM-low, ZMM-high).
	ymmOS, zmmOS := false, false
	if ecx1&bitOSXSAVE != 0 {
		xcr0, _ := xgetbv()
		ymmOS = xcr0&0x06 == 0x06
		zmmOS = ymmOS && xcr0&0xe0 == 0xe0
	}
	var avx2, avx512f, codec bool
	if maxID >= 7 {
		_, ebx7, ecx7, _ := cpuid(7, 0)
		avx2 = ebx7&(1<<5) != 0
		avx512f = ebx7&(1<<16) != 0
		const bmiDQIFMABWVL = 1<<3 | 1<<8 | 1<<17 | 1<<21 | 1<<30 | 1<<31
		codec = ebx7&bmiDQIFMABWVL == bmiDQIFMABWVL && ecx7&(1<<6) != 0 // and VBMI2
	}
	if hasAVX && ymmOS {
		features = append(features, "avx")
	}
	if hasFMA {
		features = append(features, "fma")
	}
	if avx2 && ymmOS {
		features = append(features, "avx2")
	}
	if avx512f && zmmOS {
		features = append(features, "avx512f")
	}
	can.avx2 = hasAVX && avx2 && hasFMA && ymmOS
	can.avx512 = can.avx2 && avx512f && zmmOS
	can.codec = can.avx512 && codec
	switch {
	case can.avx512:
		detected = "avx512"
	case can.avx2:
		detected = "avx2"
	}
}

// install (re)builds the dispatch table under a cap ("auto", "scalar",
// "avx2", "avx512"), clamped to the detected capability: each tier the cap
// and the CPU allow overwrites the entries it has a rung for. SetLevel
// calls it under setMu; the table must not be swapped under in-flight
// kernels.
func install(cap string) {
	installScalar()
	level, width = "scalar", 1
	if !can.avx2 || tierRank(cap) < 1 {
		return
	}
	installAVX2()
	level, width = "avx2", 4
	if !can.avx512 || tierRank(cap) < 2 {
		return
	}
	installAVX512()
	level, width = "avx512", 8
}

// installScalar resets every table entry to its portable reference.
func installScalar() {
	csrRowRange, csrRowRangeU16, csrTile, csrTileU16 = nil, nil, nil, nil
	axpyGather = axpyGatherScalar
	laneDot4 = laneDot4Scalar
	laneDot8 = laneDot8Scalar
	bcsr2x2 = bcsr2x2Scalar
	dotBcastTile = dotBcastTileScalar
	dotBcastTile8 = dotBcastTile8Scalar
	bcsr2x2Tile = bcsr2x2TileScalar
	bcsr2x2Tile8 = bcsr2x2Tile8Scalar
	codecAVX512 = false
	for i := range kernelImpl {
		kernelImpl[i] = "scalar"
	}
}

// installAVX2 points the dispatch table at the AVX2 assembly kernels. The
// three 8-wide entries get the bit-identical two-halves compositions, so
// call sites can stay tier-agnostic.
func installAVX2() {
	csrRowRange, csrRowRangeU16 = csrRowRangeAVX2, csrRowRangeAVX2U16
	csrTile, csrTileU16 = csrTileAVX2, csrTileAVX2U16
	axpyGather = axpyGatherAVX2
	laneDot4 = laneDot4AVX2
	laneDot8 = laneDot8AVX2
	bcsr2x2 = bcsr2x2AVX2
	dotBcastTile = dotBcastTileAVX2
	dotBcastTile8 = dotBcastTile8AVX2
	bcsr2x2Tile = bcsr2x2TileAVX2
	bcsr2x2Tile8 = bcsr2x2Tile8AVX2
	for i := range kernelImpl[:kScanPlain] { // the codec has no AVX2 rung
		kernelImpl[i] = "avx2"
	}
}

// installAVX512 points the six kernels with native ZMM implementations
// (each CSR kernel with its U16 twin) at them, and the multiply codec at
// its kernels where the CPU has their rung: those replace Go, not an AVX2
// kernel. LaneDot4 and the 4-wide tiles have no ZMM rung: their data
// simply is not 8 lanes wide, so they stay at AVX2 under every cap. Nor
// has bcsr.2x2: a block row's two sums fill two lanes, and a ZMM rung that
// took four blocks an iteration would reassociate across them.
func installAVX512() {
	csrRowRange, csrRowRangeU16 = csrRowRangeAVX512, csrRowRangeAVX512U16
	csrTile, csrTileU16 = csrTileAVX512, csrTileAVX512U16
	axpyGather = axpyGatherAVX512
	laneDot8 = laneDot8AVX512
	dotBcastTile8 = dotBcastTile8AVX512
	bcsr2x2Tile8 = bcsr2x2Tile8AVX512
	for _, i := range []int{kCSRRowRange, kCSRTile, kAxpyGather, kLaneDot8, kTile8, kBcsrTile8} {
		kernelImpl[i] = "avx512"
	}
	if codecAVX512 = can.codec; can.codec {
		kernelImpl[kScanPlain], kernelImpl[kFormat] = "avx512", "avx512"
	}
}
