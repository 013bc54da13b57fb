package simd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The kernel-level property tests: every dispatched kernel against its
// scalar reference, across sizes that hit every tail path, bit for bit
// (CSRRowRange against CSRRowRangeGo's canonical order).

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randIdx(rng *rand.Rand, n, bound int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(rng.Intn(bound))
	}
	return c
}

// TestDotGatherMatchesScalar pins the csr.dot-gather entry — a one-row
// CSRRowRange at k = 1 — to the Go reference, bit for bit, across sizes
// that hit every group and tail path of both tiers.
func TestDotGatherMatchesScalar(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(1))
	x := randVec(rng, 999)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 100, 1023} {
		m := csrOfLens(rng, []int{n}, len(x))
		got, want := []float64{math.NaN()}, []float64{math.NaN()}
		CSRRowRange(m.rowPtr, m.idx, m.val, x, got, 0, 1, 1)
		CSRRowRangeGo(m.rowPtr, m.idx, m.val, x, want, 0, 1, 1)
		if math.Float64bits(got[0]) != math.Float64bits(want[0]) {
			t.Errorf("n=%d: CSRRowRange=%v, the Go reference %v", n, got[0], want[0])
		}
	}
}

func TestAxpyGatherBitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(2))
	x := randVec(rng, 777)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 101} {
		val := randVec(rng, n)
		idx := randIdx(rng, n, len(x))
		y1 := randVec(rng, n)
		y2 := append([]float64(nil), y1...)
		AxpyGather(y1, val, idx, x)
		if n > 0 {
			axpyGatherScalar(&y2[0], &val[0], &idx[0], &x[0], n)
		}
		for j := range y1 {
			if y1[j] != y2[j] {
				t.Fatalf("n=%d j=%d: %v != %v", n, j, y1[j], y2[j])
			}
		}
	}
}

func TestLaneDot4BitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, 555)
	for _, stride := range []int{4, 8, 12} {
		for _, n := range []int{0, 1, 2, 17, 63} {
			ln := 4
			if n > 0 {
				ln = (n-1)*stride + 4
			}
			val := randVec(rng, ln)
			idx := randIdx(rng, ln, len(x))
			s1 := LaneDot4(val, idx, x, stride, n)
			var s2 [4]float64
			if n > 0 {
				s2 = laneDot4Scalar(&val[0], &idx[0], &x[0], stride, n)
			}
			if s1 != s2 {
				t.Fatalf("stride=%d n=%d: %v != %v", stride, n, s1, s2)
			}
		}
	}
}

// TestBcsr2x2MatchesScalar holds the block-row kernel to the scalar
// block loop bit for bit on every tier the host reaches, the forced
// AVX-512 cap included, which leaves bcsr.2x2 at AVX2.
func TestBcsr2x2MatchesScalar(t *testing.T) {
	if DetectedLevel() == "scalar" {
		t.Skip("no accelerated kernels on this CPU")
	}
	defer SetLevel(SetLevel("avx2"))
	rng := rand.New(rand.NewSource(4))
	const blkCols = 200
	x := randVec(rng, blkCols*2)
	for _, level := range []string{"avx2", "avx512", "auto"} {
		SetLevel(level)
		if impl := kernelImpl[kBcsr2x2]; impl != "avx2" {
			t.Fatalf("%s cap: bcsr.2x2 served by %q, want avx2", level, impl)
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 97} {
			val := randVec(rng, n*4)
			bc := randIdx(rng, n, blkCols)
			g0, g1 := Bcsr2x2(val, bc, x, n)
			var w0, w1 float64
			if n > 0 {
				w0, w1 = bcsr2x2Scalar(&val[0], &bc[0], &x[0], n)
			}
			if g0 != w0 || g1 != w1 {
				t.Fatalf("%s n=%d: (%v,%v) != (%v,%v)", level, n, g0, g1, w0, w1)
			}
		}
	}
}

func TestLaneDot8BitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, 555)
	for _, stride := range []int{8, 16} {
		for _, n := range []int{0, 1, 2, 17, 63} {
			ln := 8
			if n > 0 {
				ln = (n-1)*stride + 8
			}
			val := randVec(rng, ln)
			idx := randIdx(rng, ln, len(x))
			s1 := LaneDot8(val, idx, x, stride, n)
			var s2 [8]float64
			if n > 0 {
				s2 = laneDot8Scalar(&val[0], &idx[0], &x[0], stride, n)
			}
			if s1 != s2 {
				t.Fatalf("stride=%d n=%d: %v != %v", stride, n, s1, s2)
			}
		}
	}
}

func TestDotBcastTile8BitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(8))
	const cols = 999
	for _, k := range []int{8, 12} {
		x := randVec(rng, cols*k)
		for _, stride := range []int{1, 4} {
			for _, n := range []int{0, 1, 2, 33} {
				ln := 1
				if n > 0 {
					ln = (n-1)*stride + 1
				}
				val := randVec(rng, ln)
				idx := randIdx(rng, ln, cols)
				d1 := DotBcastTile8(val, idx, x[k-8:], stride, n, k)
				var d2 [8]float64
				if n > 0 {
					d2 = dotBcastTile8Scalar(&val[0], &idx[0], &x[k-8], stride, n, k)
				}
				if d1 != d2 {
					t.Fatalf("k=%d stride=%d n=%d: %v, scalar %v", k, stride, n, d1, d2)
				}
			}
		}
	}
}

func TestBcsr2x2Tile8BitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(9))
	const blkCols = 150
	for _, k := range []int{8, 12} {
		x := randVec(rng, blkCols*2*k)
		for _, n := range []int{0, 1, 2, 3, 40} {
			val := randVec(rng, n*4)
			bc := randIdx(rng, n, blkCols)
			lo1, hi1 := Bcsr2x2Tile8(val, bc, x[k-8:], n, k)
			var lo2, hi2 [8]float64
			if n > 0 {
				lo2, hi2 = bcsr2x2Tile8Scalar(&val[0], &bc[0], &x[k-8], n, k)
			}
			if lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("k=%d n=%d: (%v,%v) != (%v,%v)", k, n, lo1, hi1, lo2, hi2)
			}
		}
	}
}

func TestDotBcastTileBitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(5))
	const cols = 999
	for _, k := range []int{4, 8} {
		x := randVec(rng, cols*k)
		for _, stride := range []int{1, 4} {
			for _, n := range []int{0, 1, 2, 33} {
				ln := 1
				if n > 0 {
					ln = (n-1)*stride + 1
				}
				val := randVec(rng, ln)
				idx := randIdx(rng, ln, cols)
				// tile offset t = k-4: exercises the pre-offset contract
				d1 := DotBcastTile(val, idx, x[k-4:], stride, n, k)
				var d2 [4]float64
				if n > 0 {
					d2 = dotBcastTileScalar(&val[0], &idx[0], &x[k-4], stride, n, k)
				}
				if d1 != d2 {
					t.Fatalf("k=%d stride=%d n=%d: %v, scalar %v", k, stride, n, d1, d2)
				}
			}
		}
	}
}

func TestBcsr2x2TileBitIdentical(t *testing.T) {
	if Level() == "scalar" {
		t.Skip("no accelerated kernels installed")
	}
	rng := rand.New(rand.NewSource(6))
	const blkCols = 150
	for _, k := range []int{4, 8} {
		x := randVec(rng, blkCols*2*k)
		for _, n := range []int{0, 1, 2, 3, 40} {
			val := randVec(rng, n*4)
			bc := randIdx(rng, n, blkCols)
			lo1, hi1 := Bcsr2x2Tile(val, bc, x[k-4:], n, k)
			var lo2, hi2 [4]float64
			if n > 0 {
				lo2, hi2 = bcsr2x2TileScalar(&val[0], &bc[0], &x[k-4], n, k)
			}
			if lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("k=%d n=%d: (%v,%v) != (%v,%v)", k, n, lo1, hi1, lo2, hi2)
			}
		}
	}
}

// TestTableReportsTieredImpls holds Table to the installed tier — no
// kernel above the active level, one at least at it — and to a pure
// function of the CPU and the cap: "auto" installs what "avx512" does,
// after an avx2 round trip too, and on an AVX-512 host that is the ZMM
// rung of each of the six kernels that have one.
func TestTableReportsTieredImpls(t *testing.T) {
	tab := Table()
	seenActive := false
	for _, e := range tab {
		if tierRank(e.Impl) > tierRank(Level()) {
			t.Fatalf("kernel %s impl %q above active level %q", e.Kernel, e.Impl, Level())
		}
		seenActive = seenActive || e.Impl == Level()
	}
	if !seenActive {
		t.Fatalf("no kernel dispatches at the active level %q", Level())
	}

	defer SetLevel(SetLevel("avx512"))
	forced := Table()
	SetLevel("auto")
	auto := Table()
	SetLevel("avx2")
	SetLevel("auto")
	if again := Table(); !slices.Equal(auto, forced) || !slices.Equal(again, forced) {
		t.Fatalf("auto %v, after an avx2 round trip %v, avx512 %v", auto, again, forced)
	}
	if DetectedLevel() == "avx512" {
		for _, i := range []int{kCSRRowRange, kCSRTile, kAxpyGather, kLaneDot8, kTile8, kBcsrTile8} {
			if auto[i].Impl != "avx512" {
				t.Errorf("auto on an AVX-512 CPU: %s served by %q", auto[i].Kernel, auto[i].Impl)
			}
		}
	}
}

// TestSetLevelSweep forces every tier the host supports and pins each one
// against the scalar references on lane-unaligned sizes (n mod 8 in
// 1..7) — the masked-tail contract — then restores the boot cap with the
// returned token.
func TestSetLevelSweep(t *testing.T) {
	if DetectedLevel() == "scalar" {
		t.Skip("no accelerated kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(10))
	x := randVec(rng, 700)
	prev := SetLevel("scalar")
	defer SetLevel(prev)

	tiers := []string{"scalar", "avx2", "avx512"}
	for _, tier := range tiers {
		SetLevel(tier)
		if tierRank(tier) > tierRank(DetectedLevel()) {
			if level != DetectedLevel() {
				t.Fatalf("cap %q above detected %q: installed %q", tier, DetectedLevel(), level)
			}
		} else if tier == "scalar" {
			if Enabled() || Level() != "scalar" || Width() != 1 {
				t.Fatalf("cap scalar: enabled=%v level=%q width=%d", Enabled(), Level(), Width())
			}
		} else if level != tier || Level() != tier {
			t.Fatalf("cap %q: installed %q active %q", tier, level, Level())
		}
		wantWidth := map[string]int{"scalar": 1, "avx2": 4, "avx512": 8}[Level()]
		if Width() != wantWidth {
			t.Fatalf("cap %q: width %d != %d for level %q", tier, Width(), wantWidth, Level())
		}
		for n := 1; n <= 23; n++ { // crosses every tail residue at both tiers
			m := csrOfLens(rng, []int{n}, len(x))
			val, idx := m.val, m.idx
			got, want := []float64{math.NaN()}, []float64{math.NaN()}
			CSRRowRange(m.rowPtr, idx, val, x, got, 0, 1, 1)
			CSRRowRangeGo(m.rowPtr, idx, val, x, want, 0, 1, 1)
			if got[0] != want[0] {
				t.Fatalf("cap %q n=%d: CSRRowRange %v != %v", tier, n, got[0], want[0])
			}
			y1 := randVec(rng, n)
			y2 := append([]float64(nil), y1...)
			AxpyGather(y1, val, idx, x)
			axpyGatherScalar(&y2[0], &val[0], &idx[0], &x[0], n)
			for j := range y1 {
				if y1[j] != y2[j] {
					t.Fatalf("cap %q n=%d j=%d: AxpyGather %v != %v", tier, n, j, y1[j], y2[j])
				}
			}
		}
	}
}

// TestSetLevelRestoreToken verifies SetLevel(SetLevel(x)) round-trips the
// cap, so tests and the bench can save/restore the boot configuration, and
// that SetLevel reads its token as SPMV_SIMD_LEVEL is read: in any case,
// with an unknown token meaning "auto".
func TestSetLevelRestoreToken(t *testing.T) {
	if DetectedLevel() == "scalar" {
		t.Skip("no accelerated kernels on this CPU")
	}
	origLevel, origWidth := Level(), Width()
	tok := SetLevel("AVX2")
	if Level() != "avx2" {
		t.Errorf(`SetLevel("AVX2") installed %q, want avx2`, Level())
	}
	for _, c := range []struct{ tok, want string }{{"Scalar", "scalar"}, {"aVx512", "avx512"}, {"sse4", "auto"}, {"", "auto"}} {
		SetLevel(c.tok)
		if got := SetLevel("avx2"); got != c.want {
			t.Errorf("SetLevel(%q) applied cap %q, want %q", c.tok, got, c.want)
		}
	}
	SetLevel(tok)
	if Level() != origLevel || Width() != origWidth {
		t.Fatalf("restore: level %q width %d, want %q %d", Level(), Width(), origLevel, origWidth)
	}
}

func ptr(v []float64) *float64 {
	if len(v) == 0 {
		return new(float64)
	}
	return &v[0]
}

func ptrI(v []int32) *int32 {
	if len(v) == 0 {
		return new(int32)
	}
	return &v[0]
}
