//go:build gate

package formats

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/testutil"
)

// TestAVX512NotSlowerThanAVX2Gate holds the widest dispatch tier to the
// one below it: over the five formats whose hot loops run through the
// dispatch table, at k = 1 (gather kernels) and k = 8 (fused
// broadcast-tile kernels), on the medium and large tiers, the geomean of
// avx2 time / avx512 time must be at least 1.00. Both tiers run the same
// built format, warmed plans and worker budget; only the dispatch table
// swaps between runs.
func TestAVX512NotSlowerThanAVX2Gate(t *testing.T) {
	if simd.DetectedLevel() != "avx512" {
		t.Skipf("detected level %s, no AVX-512 to gate", simd.DetectedLevel())
	}
	const k, floor = 8, 1.0
	defer simd.SetLevel(simd.SetLevel("auto"))
	workers := exec.MaxWorkers()
	exec.Prestart()
	var sumLog float64
	var pairs int
	for _, tier := range []string{"medium-600k", "large-2M"} {
		m := testutil.GateTier(t, tier)
		x1, y1 := matrix.RandomVector(m.Cols, 6), make([]float64, m.Rows)
		xk, yk := matrix.RandomVector(m.Cols*k, 7), make([]float64, m.Rows*k)
		for _, name := range []string{"Vec-CSR", "MKL-IE", "ELL", "SELL-C-s", "BCSR"} {
			// Build under the widest dispatch so structure follows the live
			// vector width (SELL-C-s chunks to 8 lanes under AVX-512).
			simd.SetLevel("avx512")
			b, _ := Lookup(name)
			f, err := b.Build(m)
			if err != nil {
				t.Fatalf("%s %s: %v", tier, name, err)
			}
			for _, c := range []struct {
				k  int
				fn func()
			}{
				{1, func() { f.SpMVParallel(x1, y1, workers) }},
				{k, func() { f.MultiplyMany(yk, xk, k) }},
			} {
				var ns [2]float64
				for i, lvl := range []string{"avx2", "avx512"} {
					simd.SetLevel(lvl)
					c.fn() // warm this tier's plans
					ns[i] = testutil.MinNsPerOp(c.fn)
				}
				t.Logf("%s %s k=%d: avx2 %.3f ms, avx512 %.3f ms, %.2fx", tier, name, c.k, ns[0]/1e6, ns[1]/1e6, ns[0]/ns[1])
				sumLog += math.Log(ns[0] / ns[1])
				pairs++
			}
		}
	}
	geomean := math.Exp(sumLog / float64(pairs))
	t.Logf("avx512 over avx2: %.2fx geomean over %d (tier, format, k) pairs", geomean, pairs)
	if geomean < floor {
		t.Errorf("AVX-512 tier runs at %.2fx the AVX2 tier (geomean over %d pairs), floor %.2fx", geomean, pairs, floor)
	}
}

// TestShortRowsVectorizedGate holds "SIMD is not idle on short rows": on
// the lib-stream matrix (420 000 rows, 190 000 of them under 8 entries,
// 96 000 of one) MKL-IE on one lane must run at least 1.30x faster under
// the active dispatch tier than with the table capped to scalar. With a
// dispatched call per row of >= 8 and a scalar loop below, the ratio read
// 0.94-1.01; the row-range kernel reads 1.5-1.9. One retry absorbs a noisy
// neighbour.
func TestShortRowsVectorizedGate(t *testing.T) {
	if simd.DetectedLevel() == "scalar" {
		t.Skip("no accelerated tier detected")
	}
	const floor = 1.30
	defer simd.SetLevel(simd.SetLevel("auto"))
	m := skewTier(t, 420000)
	f := NewInspectorCSR(m)
	x, y := matrix.RandomVector(m.Cols, 6), make([]float64, m.Rows)
	fn := func() { f.SpMVParallel(x, y, 1) }
	for attempt := 1; ; attempt++ {
		var ns [2]float64
		for i, lvl := range []string{"scalar", "auto"} {
			simd.SetLevel(lvl)
			fn()
			ns[i] = testutil.MinNsPerOp(fn)
		}
		ratio := ns[0] / ns[1]
		t.Logf("attempt %d: scalar %.2f ms, %s %.2f ms, %.2fx", attempt, ns[0]/1e6, simd.Level(), ns[1]/1e6, ratio)
		if ratio >= floor {
			return
		}
		if attempt == 2 {
			t.Fatalf("MKL-IE on lib-stream runs %.2fx the scalar tier under %s, floor %.2fx", ratio, simd.Level(), floor)
		}
	}
}
