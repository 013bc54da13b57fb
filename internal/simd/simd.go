// Package simd provides vectorized micro-kernels for the hottest SpMV
// inner loops — the CSR row-range product, the HYB/SELL-C-sigma slab sweeps,
// the BCSR 2x2 tile, and the k-wide broadcast tiles of the fused SpMM
// kernels — with runtime CPU-feature detection and per-kernel
// function-pointer dispatch across a ladder of tiers.
//
// # Dispatch tiers
//
// At init the package probes the CPU (CPUID/XGETBV on amd64) and installs
// the widest kernel implementation the hardware and OS support into a
// function-pointer table, per kernel: scalar < avx2 < avx512. The table is
// a pure function of the CPU and the cap: every kernel with a rung at the
// widest allowed tier runs it. The format packages consult Enabled() once
// per kernel invocation and branch to either the dispatched kernels here
// or their original scalar loops, so a scalar cap pays zero indirection.
//
// # Caps
//
// SPMV_SIMD_LEVEL caps the tier: "scalar", "avx2" or "avx512", in any
// case. "scalar" forces the portable path and "avx2" stops the ladder
// below ZMM. Unset or unrecognized values mean "auto", which installs the
// same table as "avx512": the widest detected tier. SetLevel is the
// programmatic twin, parses its token the same way, and is how the
// three-way bench switches tiers mid-process; it must not race in-flight
// multiplies (quiesce kernels first — it swaps the table).
//
// # Accumulation-order contract
//
// Every dispatched kernel is a bit-level drop-in for its scalar loop, at
// every tier: the tier decides the speed, never the bits.
//
//   - CSRRowRange ("csr.dot-gather" at k = 1, "csr.tile" at k > 1) runs
//     one canonical row order at every tier and k, CSRRowRangeGo's: entry
//     j of a row goes into partial sum j mod 8 by FMA, and the eight sums
//     reduce as ((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7)). AVX2 holds them in
//     two YMM registers, AVX-512 in one ZMM, the k-wide tile in eight
//     registers of 4 (YMM) or 8 (ZMM) vectors. The sums start from +0, so
//     a product of exactly -0 adds as +0, as in 0 + a*b; a masked step
//     writes its live lanes only, so a dead lane's 0*0 never turns a sum
//     of -0 (an underflowed negative product) into +0.
//   - AxpyGather (HYB column sweep): each y[j] receives exactly one
//     mul-then-add per slab column, in the same column order.
//   - LaneDot4 / LaneDot8 (SELL-C-sigma slab): each lane's sum accumulates
//     sequentially in ascending column order (lanes are independent SIMD
//     lanes).
//   - Bcsr2x2 / Bcsr2x2Tile / Bcsr2x2Tile8: per block (and lane) the
//     scalar kernel computes d += (v0*x0 + v1*x1); the vector kernels
//     reproduce exactly that pairing. Bcsr2x2 has no AVX-512 rung.
//   - DotBcastTile / DotBcastTile8 (the fused SpMM tiles of HYB and
//     SELL-C-sigma): each vector lane is an independent sequential sum in
//     entry order.
//
// The kernels other than CSRRowRange deliberately use separate multiply
// and add instructions (no FMA contraction): their order is the scalar
// loop's, and fusing the rounding step would break it.
//
// # Index trust
//
// The kernels load x through 32-bit (or, see Index, 16-bit) column
// indices with no bounds checks (that is much of the speedup). Callers
// must guarantee indices are in [0, len(x)); every format in
// internal/formats does so by construction from a validated CSR matrix.
// A kernel reads the indices of its call's entries only; the AVX-512 k = 1
// kernel may load x at a later row's index into a masked-off lane.
package simd

import (
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/decimal"
)

// EnvLevel caps the dispatch tier at process start: "scalar", "avx2" or
// "avx512" (unset means auto).
const EnvLevel = "SPMV_SIMD_LEVEL"

// enabled publishes level != "scalar" for the kernels' per-call read.
var enabled atomic.Bool

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
// independent of what was installed).
var features []string

// Kernel indices into kernelNames / kernelImpl. The three *8 entries are
// the wide-tier twins of the 4-lane kernels: on AVX2 they dispatch to
// bit-identical two-halves compositions, on AVX-512 to native ZMM code.
const (
	kCSRRowRange = iota
	kCSRTile
	kAxpyGather
	kLaneDot4
	kLaneDot8
	kBcsr2x2
	kTile4
	kTile8
	kBcsrTile4
	kBcsrTile8
	kScanPlain
	kFormat
	nKernels
)

// kernelNames lists the dispatchable kernels in stable report order
// (aligned with the k* indices above).
var kernelNames = [nKernels]string{
	"csr.dot-gather",
	"csr.tile",
	"ell.axpy-gather",
	"sellcs.lane-dot4",
	"sellcs.lane-dot8",
	"bcsr.2x2",
	"multi.bcast-tile4",
	"multi.bcast-tile8",
	"bcsr.2x2-tile4",
	"bcsr.2x2-tile8",
	"codec.scan",
	"codec.format",
}

// kernelImpl records which implementation each table entry points at.
var kernelImpl = func() (ki [nKernels]string) {
	for i := range ki {
		ki[i] = "scalar"
	}
	return ki
}()

// can records the hardware+OS capability ladder filled by detect (none
// off amd64).
var can struct {
	avx2   bool
	avx512 bool
	codec  bool // AVX-512 BW, VL, DQ, IFMA and VBMI2, BMI1 and BMI2: the codec's kernels
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

var setMu sync.Mutex

func init() {
	detect() // arch-specific: fills features and detected
	SetLevel(os.Getenv(EnvLevel))
}

// parseCap reads a cap token, in any case: "scalar", "avx2" or "avx512",
// and "auto" for anything else.
func parseCap(s string) string {
	switch s = strings.ToLower(s); s {
	case "scalar", "avx2", "avx512":
		return s
	}
	return "auto"
}

// Enabled reports whether the dispatched kernels are active (the cap and
// the CPU allow a tier above scalar). Format kernels consult this once per
// invocation and fall back to their scalar loops when false.
func Enabled() bool { return enabled.Load() }

// SetLevel re-caps the dispatch tier at runtime: "scalar", "avx2",
// "avx512" or "auto" (the boot default), in any case; an unknown token
// means "auto". Caps above the detected capability clamp to it, and
// "auto" installs the widest detected tier, as "avx512" does. It returns
// the previous cap token, so SetLevel(SetLevel("avx2")) restores the
// prior table exactly. SetLevel swaps the dispatch table: callers must
// quiesce in-flight kernels first (the bench and the equivalence sweep
// switch tiers only between runs).
func SetLevel(cap string) string {
	setMu.Lock()
	defer setMu.Unlock()
	prev := curCap
	curCap = parseCap(cap)
	install(curCap) // arch-specific: builds the table under the cap
	enabled.Store(level != "scalar")
	return prev
}

// Level names the active dispatch tier: the widest installed level
// ("avx512", "avx2" or "scalar").
func Level() string { return level }

// DetectedLevel names the widest tier the hardware and OS support,
// independent of the cap. The journal host fingerprint keys off
// this, not Level(): a capped process must still recognize journals
// written by an uncapped one on the same machine.
func DetectedLevel() string { return detected }

// Width returns the SIMD width in float64 lanes of the active dispatch (1
// under a scalar cap). Format defaults (e.g. the SELL-C-sigma chunk size)
// and the host device model key off this.
func Width() int { return width }

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
// measurement attributable to the host ISA. Under a scalar cap every
// entry reports "scalar".
func Table() []KernelInfo {
	out := make([]KernelInfo, nKernels)
	for i, n := range kernelNames {
		out[i] = KernelInfo{Kernel: n, Impl: kernelImpl[i]}
	}
	return out
}

// --- dispatched entry points -------------------------------------------
//
// Each wrapper validates the degenerate cases the assembly does not
// (empty inputs) and forwards to the installed implementation. The
// pointers are installed before callers can observe Enabled()==true.

// The tile kernels take only pointers into long-lived format storage and
// return their accumulator tiles BY VALUE ([4]/[8]float64). That shape is
// deliberate: an indirect call is an escape-analysis barrier, so a
// pointer-out parameter would force every caller's stack-resident register
// tile to the heap — one allocation per row tile. Value returns keep the
// hot loops allocation-free.

// Index is the column-index type of the CSR kernels: int32, or uint16
// (zero-extended) up to 1<<16 columns. Each CSR kernel body is one
// assembly macro instantiated for both widths.
type Index interface{ int32 | uint16 }

// U16Slack is how many zeroed entries a uint16 index array holds past its
// last: AVX2 has no word-masked load, so its CSR kernel loads a row's last
// one to three indices as four, unmasked.
const U16Slack = 4

// CSRRowRange computes rows [lo, hi) of Y = A*X for k row-major vectors,
// y[i*k+t] over the entries j in [rowPtr[i], rowPtr[i+1]) of
// val[j] * x[idx[j]*k+t], in CSRRowRangeGo's order and bit for bit with it
// at every tier (see the package contract). The row loop runs inside the
// kernel: the row kernel at k = 1, at k > 1 the register tile, 4
// vectors per YMM pass or 8 per ZMM pass with the last k mod 4 (or 8)
// under a lane mask. Under a scalar cap it is CSRRowRangeGo.
func CSRRowRange[I Index](rowPtr []int32, idx []I, val, x, y []float64, lo, hi, k int) {
	if !Enabled() {
		CSRRowRangeGo(rowPtr, idx, val, x, y, lo, hi, k)
		return
	}
	if lo >= hi {
		return
	}
	nnz := int(rowPtr[hi])
	_, _, _ = rowPtr[lo], y[hi*k-1], val[:nnz]
	rp, v, xp, yp := &rowPtr[0], unsafe.SliceData(val), unsafe.SliceData(x), &y[0]
	if c, ok := any(idx).([]uint16); ok {
		if c = c[:nnz+U16Slack]; k == 1 {
			csrRowRangeU16(rp, unsafe.SliceData(c), v, xp, yp, lo, hi)
		} else {
			csrTileU16(rp, unsafe.SliceData(c), v, xp, yp, lo, hi, k)
		}
		return
	}
	c := (*int32)(unsafe.Pointer(unsafe.SliceData(idx[:nnz])))
	if k == 1 {
		csrRowRange(rp, c, v, xp, yp, lo, hi)
	} else {
		csrTile(rp, c, v, xp, yp, lo, hi, k)
	}
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
// column blkCol[b]*2. Bit-identical to the scalar block loop at every
// tier (AVX2 serves it on AVX-512 hosts too).
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

// codecAVX512 is set while the multiply codec's kernels are installed.
// They are called directly, not through the table: an indirect call would
// move the caller's stack buffers to the heap.
var codecAVX512 bool

// CodecAVX512 reports whether the multiply codec's AVX-512 tier (BW, VL,
// DQ, IFMA and VBMI2) is installed; below it ScanPlain decodes nothing
// and ShortestPlain and AppendPlain must not be called.
func CodecAVX512() bool { return codecAVX512 }

// ScanSlack is how many bytes ScanPlain leaves unread at the end of its
// input: a literal that starts in them is the caller's.
const ScanSlack = 64

// ScanPlain decodes the plain literals at b[i:], each followed by a ','
// that it consumes, into x: a literal -?(0|[1-9][0-9]*)(\.[0-9]+)? of at
// most 19 significant digits whose decimal.Number Float converts becomes
// that float64. It stops at the first literal of any other kind, at one
// starting within ScanSlack bytes of the end, or when x is full, and
// returns how many it decoded and the offset after the last one's comma.
func ScanPlain(b []byte, i int, x []float64) (n, end int) {
	if !CodecAVX512() || len(x) == 0 {
		return 0, i
	}
	return scanPlainAVX512(unsafe.SliceData(b), i, len(b)-ScanSlack, &x[0], len(x), &decimal.Pow10[-decimal.MinPow10])
}

// AppendPlain appends, for each lay[j] = frac | neg<<8 | drop<<16 (higher
// bits ignored), ±d·10^-frac in plain notation and a ',': d > 0 has at
// most 17 digits, and d·10^drop is given as the three 8-digit groups at
// g[24j:24j+24], little-endian words below 10^8 (g is overwritten and read
// 32 bytes past them); the point falls among d's digits or, where they
// run out, after a "0" and zeros.
func AppendPlain(dst, g []byte, lay []uint32) []byte {
	if len(lay) == 0 {
		return dst
	}
	_ = g[24*len(lay)+31]
	dst = slices.Grow(dst, 26*len(lay)+32) // an entry takes at most 26 bytes, a store 32
	n := len(dst)
	return dst[:n+appendPlainAVX512(&dst[:n+1][n], &g[0], &lay[0], len(lay))]
}

// ShortestPlain sets lay[j] and g[24j:24j+24] for AppendPlain to write
// y[j] as strconv.AppendFloat(dst, y[j], 'f', -1, 64) does, for each y[j]
// that is not an integer, has 1e-6 <= |y[j]| < 2^53 and drops fewer than
// eight of the digits the exact search starts from (then lay[j] >= 1),
// and lay[j] = 0 for every other entry. lay and g hold len(y) entries
// rounded up to eight. Call it only at the codec tier (CodecAVX512).
func ShortestPlain(y []float64, g []byte, lay []uint32) {
	n8 := (len(y) + 7) &^ 7
	shortestAVX512(unsafe.SliceData(y), unsafe.SliceData(g[:24*n8]), unsafe.SliceData(lay[:n8]), len(y), &decimal.Pow5)
}
