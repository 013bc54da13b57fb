package simd

// Runtime CPU-feature detection via CPUID/XGETBV. golang.org/x/sys/cpu
// would do the same probing, but the repo carries no dependencies; the two
// instructions below are all the surface we need.

// cpuid executes CPUID with the given leaf/subleaf (detect_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask (requires the
// OSXSAVE CPUID bit, which the caller checks first).
func xgetbv() (eax, edx uint32)

// can records the hardware+OS capability ladder filled by detect.
var can struct {
	avx2   bool
	avx512 bool
}

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
	var avx2, avx512f bool
	if maxID >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = ebx7&(1<<5) != 0
		avx512f = ebx7&(1<<16) != 0
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
	switch {
	case can.avx512:
		detected = "avx512"
	case can.avx2:
		detected = "avx2"
	}
}

// tierRank orders the cap ladder for clamping.
func tierRank(t string) int {
	switch t {
	case "avx2":
		return 1
	case "avx512", "auto":
		return 2
	}
	return 0
}

// install (re)builds the dispatch table under a cap ("auto", "scalar",
// "avx2", "avx512"), clamped to the detected capability. The AVX-512 rung
// is per-kernel: under "auto" each ZMM kernel must beat its AVX2
// counterpart in the install-time calibration to be installed ("avx512"
// skips calibration and forces the full tier — the operator pinned it).
// Callers hold setMu (or run before init returns); the table must not be
// swapped under in-flight kernels.
func install(cap string) {
	installScalar()
	hasAccel = false
	level, width = "scalar", 1
	if !can.avx2 || tierRank(cap) < 1 {
		return
	}
	installAVX2()
	hasAccel = true
	level, width = "avx2", 4
	if !can.avx512 || tierRank(cap) < 2 {
		return
	}
	forced := cap == "avx512"
	any := false
	for _, k := range avx512Kernels() {
		if forced || calWinner(kernelNames[k.idx]) {
			k.install()
			kernelImpl[k.idx] = "avx512"
			any = true
		}
	}
	if any {
		level, width = "avx512", 8
	}
}

// installScalar resets every table entry to its portable reference.
func installScalar() {
	csrRowRange = csrRowRangeScalar
	axpyGather = axpyGatherScalar
	laneDot4 = laneDot4Scalar
	laneDot8 = laneDot8Scalar
	bcsr2x2 = bcsr2x2Scalar
	dotBcastTile = dotBcastTileScalar
	dotBcastTile8 = dotBcastTile8Scalar
	bcsr2x2Tile = bcsr2x2TileScalar
	bcsr2x2Tile8 = bcsr2x2Tile8Scalar
	for i := range kernelImpl {
		kernelImpl[i] = "scalar"
	}
}

// installAVX2 points the dispatch table at the AVX2 assembly kernels. The
// three 8-wide entries get the bit-identical two-halves compositions, so
// call sites can stay tier-agnostic.
func installAVX2() {
	csrRowRange = csrRowRangeAVX2
	axpyGather = axpyGatherAVX2
	laneDot4 = laneDot4AVX2
	laneDot8 = laneDot8AVX2
	bcsr2x2 = bcsr2x2AVX2
	dotBcastTile = dotBcastTileAVX2
	dotBcastTile8 = dotBcastTile8AVX2
	bcsr2x2Tile = bcsr2x2TileAVX2
	bcsr2x2Tile8 = bcsr2x2Tile8AVX2
	for i := range kernelImpl {
		kernelImpl[i] = "avx2"
	}
}

// avx512Candidate is one rung of the AVX-512 ladder: the kernel it
// upgrades and how to point the table at the ZMM implementation.
type avx512Candidate struct {
	idx     int
	install func()
}

// avx512Kernels lists the six kernels with native ZMM implementations.
// LaneDot4 and the 4-wide tiles have none: their data simply is not 8
// lanes wide, so they stay at AVX2 under every cap.
func avx512Kernels() []avx512Candidate {
	return []avx512Candidate{
		{kCSRRowRange, func() { csrRowRange = csrRowRangeAVX512 }},
		{kAxpyGather, func() { axpyGather = axpyGatherAVX512 }},
		{kLaneDot8, func() { laneDot8 = laneDot8AVX512 }},
		{kBcsr2x2, func() { bcsr2x2 = bcsr2x2AVX512 }},
		{kTile8, func() { dotBcastTile8 = dotBcastTile8AVX512 }},
		{kBcsrTile8, func() { bcsr2x2Tile8 = bcsr2x2Tile8AVX512 }},
	}
}
