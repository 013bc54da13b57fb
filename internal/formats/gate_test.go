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
