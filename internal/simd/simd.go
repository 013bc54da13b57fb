// Package simd provides vectorized micro-kernels for the hottest SpMV
// inner loops — the CSR row-range product, the ELL/SELL-C-sigma slab sweeps,
// the BCSR 2x2 tile, and the k-wide broadcast tiles of the fused SpMM
// kernels — with runtime CPU-feature detection and per-kernel
// function-pointer dispatch across a ladder of tiers.
//
// # Dispatch tiers
//
// At init the package probes the CPU (CPUID/XGETBV on amd64) and installs
// the widest kernel implementation the hardware and OS support into a
// function-pointer table, per kernel: scalar < avx2 < avx512. The AVX-512
// tier is *calibrated* rather than assumed — 512-bit execution can
// downclock some parts, so each ZMM kernel is micro-timed against its AVX2
// counterpart at install and only replaces it when it actually wins
// ("win-or-stay-at-AVX2"). The format packages consult Enabled() once per
// kernel invocation and branch to either the dispatched kernels here or
// their original scalar loops, so a disabled dispatch pays zero
// indirection.
//
// # Caps
//
// SPMV_SIMD_LEVEL caps the tier: "scalar", "avx2" or "avx512". "scalar"
// forces the portable path, "avx2" stops the ladder below ZMM, and
// "avx512" force-installs the full AVX-512 tier without calibration (the
// operator asked for it; benches and equivalence tests use this to pin the
// tier under measurement). Unset or unrecognized values mean "auto":
// widest detected, calibrated. SetLevel is the programmatic twin and is
// how the three-way bench switches tiers mid-process; it must not race
// in-flight multiplies (quiesce kernels first — it swaps the table).
//
// # Accumulation-order contract
//
// The dispatched kernels are drop-in replacements at the bit level
// wherever the scalar kernel's accumulation order survives vectorization:
//
//   - AxpyGather (ELL column sweep): each y[j] receives exactly one
//     mul-then-add per slab column, in the same column order — results are
//     bit-identical to the scalar sweep at every tier.
//   - LaneDot4 / LaneDot8 (SELL-C-sigma slab): each lane's sum accumulates
//     sequentially in ascending column order (lanes are independent SIMD
//     lanes) — bit-identical.
//   - Bcsr2x2Tile / Bcsr2x2Tile8: per block and lane the scalar kernel
//     computes d += (v0*x0 + v1*x1); the vector kernels reproduce exactly
//     that pairing — bit-identical.
//   - DotBcastTile / DotBcastTile8 (fused SpMM tiles): each vector lane is
//     an independent sequential sum in entry order — bit-identical.
//
// These kernels deliberately use separate multiply and add instructions
// (no FMA contraction), because fusing the rounding step would break the
// bit contract for a negligible win on gather-bound loops.
//
// Two kernels reassociate: CSRRowRange ("csr.dot-gather", a whole row
// range per call) reduces each row pairwise — one masked step for a row no
// longer than the vector, whose dead lanes multiply exact 0*0; FMA partial
// sums (8 on AVX2, 16 on AVX-512) for a longer one — bit-identical to the
// sequential sum only up to two entries; and the AVX-512 Bcsr2x2 processes
// four blocks per iteration with FMA, unlike its bit-identical AVX2
// counterpart. Both stay within the dot product's forward bound; the
// property tests grant exactly these kernels that tolerance (see KernelImpl,
// which lets the test harness key it off the installed implementation).
//
// # Index trust
//
// The kernels gather x through 32-bit column indices with no bounds
// checks (that is much of the speedup). Callers must guarantee indices
// are in [0, len(x)); every format in internal/formats does so by
// construction from a validated CSR matrix.
package simd

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// EnvLevel caps the dispatch tier at process start: "scalar", "avx2" or
// "avx512" (unset means auto).
const EnvLevel = "SPMV_SIMD_LEVEL"

// enabled is true only when accelerated kernels are installed and the cap
// is above "scalar" (or a test switched them off with SetEnabled).
var enabled atomic.Bool

// hasAccel reports whether accelerated kernels are currently installed.
var hasAccel bool

// level names the widest installed acceleration tier ("avx512", "avx2",
// "scalar").
var level = "scalar"

// width is the SIMD width in float64 lanes of the widest installed tier
// (1 when only the scalar path exists).
var width = 1

// detected names the widest tier the hardware and OS support, independent
// of any cap ("scalar" off amd64).
var detected = "scalar"

// curCap is the cap currently applied to the table: "auto", "scalar",
// "avx2" or "avx512" (SetLevel's restore token).
var curCap = "auto"

// features lists the detected CPU SIMD capabilities (detection result,
// independent of what was installed or whether the switch is on).
var features []string

// Kernel indices into kernelNames / kernelImpl. The three *8 entries are
// the wide-tier twins of the 4-lane kernels: on AVX2 they dispatch to
// bit-identical two-halves compositions, on AVX-512 to native ZMM code.
const (
	kCSRRowRange = iota
	kAxpyGather
	kLaneDot4
	kLaneDot8
	kBcsr2x2
	kTile4
	kTile8
	kBcsrTile4
	kBcsrTile8
	nKernels
)

// kernelNames lists the dispatchable kernels in stable report order
// (aligned with the k* indices above).
var kernelNames = [nKernels]string{
	"csr.dot-gather",
	"ell.axpy-gather",
	"sellcs.lane-dot4",
	"sellcs.lane-dot8",
	"bcsr.2x2",
	"multi.bcast-tile4",
	"multi.bcast-tile8",
	"bcsr.2x2-tile4",
	"bcsr.2x2-tile8",
}

// kernelImpl records which implementation each table entry points at.
var kernelImpl = func() (ki [nKernels]string) {
	for i := range ki {
		ki[i] = "scalar"
	}
	return ki
}()

var setMu sync.Mutex

func init() {
	detect() // arch-specific: fills features and detected
	cap := envCap()
	curCap = cap
	install(cap) // arch-specific: builds the table under the cap
	if hasAccel && cap != "scalar" {
		enabled.Store(true)
	}
}

// envCap parses SPMV_SIMD_LEVEL ("auto" when unset or unrecognized).
func envCap() string {
	switch v := strings.ToLower(os.Getenv(EnvLevel)); v {
	case "scalar", "avx2", "avx512":
		return v
	}
	return "auto"
}

// Enabled reports whether the dispatched kernels are active. Format
// kernels consult this once per invocation and fall back to their scalar
// loops when false.
func Enabled() bool { return enabled.Load() }

// SetEnabled routes callers to or away from the installed table without
// swapping it, and returns the previous state. It is a test hook: the
// equivalence tests flip one built instance between its dispatched and
// scalar loops mid-test, which SetLevel (a table swap) is too heavy for.
// Product code caps the tier with SetLevel("scalar"). Enabling is a no-op
// on hardware without accelerated kernels.
func SetEnabled(on bool) bool {
	setMu.Lock()
	defer setMu.Unlock()
	prev := enabled.Load()
	enabled.Store(on && hasAccel)
	return prev
}

// SetLevel re-caps the dispatch tier at runtime: "scalar", "avx2",
// "avx512" or "auto" (widest detected, calibrated — the boot default).
// Caps above the detected capability clamp to it; "avx512" skips
// calibration and force-installs every ZMM kernel the hardware supports.
// It returns the previous cap token, so SetLevel(SetLevel("avx2"))
// restores the prior table exactly. SetLevel swaps the dispatch table:
// callers must quiesce in-flight kernels first (the bench and the
// equivalence sweep switch tiers only between runs).
func SetLevel(cap string) string {
	switch cap {
	case "auto", "scalar", "avx2", "avx512":
	default:
		cap = "auto"
	}
	setMu.Lock()
	defer setMu.Unlock()
	prev := curCap
	curCap = cap
	install(cap)
	enabled.Store(hasAccel && cap != "scalar")
	return prev
}

// Available reports whether accelerated kernels exist for this CPU under
// the current cap, regardless of whether callers are routed to them.
func Available() bool { return hasAccel }

// Level names the active dispatch tier: the widest installed accelerator
// level ("avx512", "avx2") while enabled, "scalar" otherwise.
func Level() string {
	if Enabled() {
		return level
	}
	return "scalar"
}

// DetectedLevel names the widest tier the hardware and OS support,
// independent of caps and switches. The journal host fingerprint keys off
// this, not Level(): a capped process must still recognize journals
// written by an uncapped one on the same machine.
func DetectedLevel() string { return detected }

// Width returns the SIMD width in float64 lanes of the active dispatch:
// the widest installed tier's vector width while enabled, 1 otherwise.
// Format defaults (e.g. the SELL-C-sigma chunk size) and the host device
// model key off this.
func Width() int {
	if Enabled() {
		return width
	}
	return 1
}

// Features returns the detected CPU SIMD feature names (e.g. "avx2",
// "fma", "avx512f"), independent of the active level. Empty on
// architectures without detection.
func Features() []string {
	out := make([]string, len(features))
	copy(out, features)
	return out
}

// KernelInfo describes one dispatch-table entry for reporting: which
// kernel, and which implementation serves it right now.
type KernelInfo struct {
	Kernel string `json:"kernel"`
	Impl   string `json:"impl"`
}

// Table returns the active dispatch table, one row per kernel, for CLI,
// BENCH artifact and /v1/info reporting — the record that makes a
// measurement attributable to the host ISA. With dispatch off
// every entry reports "scalar" (that is what callers run).
func Table() []KernelInfo {
	out := make([]KernelInfo, nKernels)
	on := Enabled()
	for i, n := range kernelNames {
		impl := "scalar"
		if on {
			impl = kernelImpl[i]
		}
		out[i] = KernelInfo{Kernel: n, Impl: impl}
	}
	return out
}

// KernelImpl reports the implementation serving the named kernel right
// now ("scalar" when dispatch is off or the kernel is unknown). The
// equivalence harness keys its tolerance policy off this: e.g. "bcsr.2x2"
// is bit-identical on AVX2 but reassociates on AVX-512.
func KernelImpl(kernel string) string {
	if !Enabled() {
		return "scalar"
	}
	for i, n := range kernelNames {
		if n == kernel {
			return kernelImpl[i]
		}
	}
	return "scalar"
}

// --- dispatched entry points -------------------------------------------
//
// Each wrapper validates the degenerate cases the assembly does not
// (empty inputs) and forwards to the installed implementation. The
// pointers are installed before callers can observe Enabled()==true;
// SetEnabled gates callers, not the table, so a mid-flight toggle never
// races a nil pointer.

// The tile kernels take only pointers into long-lived format storage and
// return their accumulator tiles BY VALUE ([4]/[8]float64). That shape is
// deliberate: an indirect call is an escape-analysis barrier, so a
// pointer-out parameter would force every caller's stack-resident register
// tile to the heap — one allocation per row tile. Value returns keep the
// hot loops allocation-free.

// CSRRowRange computes y[i] = sum(val[j] * x[idx[j]]) over the entries
// j in [rowPtr[i], rowPtr[i+1]) of every row i in [lo, hi), the row loop
// inside the kernel. Masked short rows, multi-accumulator FMA long rows:
// reassociates relative to a sequential sum (see the package contract).
func CSRRowRange(rowPtr, idx []int32, val, x, y []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	nnz := rowPtr[hi]
	_, _, _, _ = rowPtr[lo], y[hi-1], idx[:nnz], val[:nnz]
	csrRowRange(&rowPtr[0], unsafe.SliceData(idx), unsafe.SliceData(val), unsafe.SliceData(x), &y[0], lo, hi)
}

// AxpyGather computes y[j] += val[j] * x[idx[j]] for every j.
// Bit-identical to the scalar loop.
func AxpyGather(y, val []float64, idx []int32, x []float64) {
	n := len(y)
	if n == 0 {
		return
	}
	_ = val[n-1]
	_ = idx[n-1]
	axpyGather(&y[0], &val[0], &idx[0], &x[0], n)
}

// LaneDot4 returns four independent lane sums over a strided slab:
// sums[l] = sum over j in [0, n) of val[j*stride+l] * x[idx[j*stride+l]],
// l in [0, 4). val and idx must hold at least (n-1)*stride+4 entries.
// Bit-identical to the scalar lane loop.
func LaneDot4(val []float64, idx []int32, x []float64, stride, n int) [4]float64 {
	if n == 0 {
		return [4]float64{}
	}
	_ = val[(n-1)*stride+3]
	_ = idx[(n-1)*stride+3]
	return laneDot4(&val[0], &idx[0], &x[0], stride, n)
}

// LaneDot8 is the 8-lane twin of LaneDot4 (l in [0, 8); val and idx must
// hold at least (n-1)*stride+8 entries). Bit-identical to the scalar lane
// loop at every tier: the AVX2 fallback runs two 4-lane halves.
func LaneDot8(val []float64, idx []int32, x []float64, stride, n int) [8]float64 {
	if n == 0 {
		return [8]float64{}
	}
	_ = val[(n-1)*stride+7]
	_ = idx[(n-1)*stride+7]
	return laneDot8(&val[0], &idx[0], &x[0], stride, n)
}

// Bcsr2x2 accumulates one BCSR block row of interior 2x2 blocks:
// s0 += v0*x0 + v1*x1, s1 += v2*x0 + v3*x1 per block, with x0, x1 read at
// column blkCol[b]*2. Bit-identical to the scalar block loop on AVX2; the
// AVX-512 implementation processes four blocks per iteration and
// reassociates (KernelImpl("bcsr.2x2") tells the tests which applies).
func Bcsr2x2(val []float64, blkCol []int32, x []float64, n int) (s0, s1 float64) {
	if n == 0 {
		return 0, 0
	}
	_ = val[n*4-1]
	_ = blkCol[n-1]
	return bcsr2x2(&val[0], &blkCol[0], &x[0], n)
}

// DotBcastTile returns a 4-vector SpMM register tile:
// dst[t] = sum over j in [0, n) of val[j*stride] * x[idx[j*stride]*k + t],
// t in [0, 4). x must be pre-offset to the tile start (so its element 0 is
// vector lane 0 of the tile). Bit-identical to the scalar tile loop.
func DotBcastTile(val []float64, idx []int32, x []float64, stride, n, k int) [4]float64 {
	if n == 0 {
		return [4]float64{}
	}
	_ = val[(n-1)*stride]
	_ = idx[(n-1)*stride]
	return dotBcastTile(&val[0], &idx[0], &x[0], stride, n, k)
}

// DotBcastTile8 is the 8-vector twin of DotBcastTile (t in [0, 8); the
// tile must have 8 live lanes). Bit-identical to the scalar tile loop at
// every tier.
func DotBcastTile8(val []float64, idx []int32, x []float64, stride, n, k int) [8]float64 {
	if n == 0 {
		return [8]float64{}
	}
	_ = val[(n-1)*stride]
	_ = idx[(n-1)*stride]
	return dotBcastTile8(&val[0], &idx[0], &x[0], stride, n, k)
}

// Bcsr2x2Tile returns a 2-row x 4-vector BCSR SpMM tile over n interior
// 2x2 blocks: lo is block row 0's tile, hi row 1's. x must be pre-offset
// to the tile start. Bit-identical to the scalar tile loop.
func Bcsr2x2Tile(val []float64, blkCol []int32, x []float64, n, k int) (lo, hi [4]float64) {
	if n == 0 {
		return [4]float64{}, [4]float64{}
	}
	_ = val[n*4-1]
	_ = blkCol[n-1]
	return bcsr2x2Tile(&val[0], &blkCol[0], &x[0], n, k)
}

// Bcsr2x2Tile8 is the 2-row x 8-vector twin of Bcsr2x2Tile. Bit-identical
// to the scalar tile loop at every tier.
func Bcsr2x2Tile8(val []float64, blkCol []int32, x []float64, n, k int) (lo, hi [8]float64) {
	if n == 0 {
		return [8]float64{}, [8]float64{}
	}
	_ = val[n*4-1]
	_ = blkCol[n-1]
	return bcsr2x2Tile8(&val[0], &blkCol[0], &x[0], n, k)
}
