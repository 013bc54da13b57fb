//go:build gate

package formats

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/measure"
	"repro/internal/simd"
	"repro/internal/testutil"
)

// TestAVX512NotSlowerThanAVX2Gate holds the widest dispatch tier to the
// one below it: over the three formats whose hot loops run through the
// dispatch table, at k = 1 (gather kernels) and k = 8 (fused
// broadcast-tile kernels), on the medium and large tiers, the geomean of
// avx2 time / avx512 time must be at least 1.00. Both tiers run the same
// built format, warmed lane frame and worker budget; only the dispatch table
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
		for _, name := range []string{"MKL-IE", "SELL-C-s", "BCSR"} {
			// Build under the widest dispatch so structure follows the live
			// vector width (SELL-C-s chunks to 8 lanes under AVX-512).
			simd.SetLevel("avx512")
			b, _ := Lookup(name)
			f, err := b.Build(m)
			if err != nil {
				t.Fatalf("%s %s: %v", tier, name, err)
			}
			for _, c := range []struct {
				k    int
				x, y []float64
			}{{1, x1, y1}, {k, xk, yk}} {
				ns := tierNs(t, []string{"avx2", "avx512"}, func() error {
					return f.Apply(context.Background(), c.y, c.x, c.k, workers)
				})
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
	f := newPreset("MKL-IE", m)
	x, y := matrix.RandomVector(m.Cols, 6), make([]float64, m.Rows)
	for attempt := 1; ; attempt++ {
		ns := tierNs(t, []string{"scalar", "auto"}, func() error {
			return f.Apply(context.Background(), y, x, 1, 1)
		})
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

// TestNarrowIndexGate holds the narrow-index mechanism to its reason for
// being: on a matrix shaped like serve-batch's (3 000 x 3 000, 1 000
// nonzeros per row, bandwidth 1, skew 0.5; 36 MB of int32 CSR), MKL-IE on
// two lanes must run at least 1.08x faster over 2-byte column indices than
// over its widened int32 twin, the two timed in one measure.Compare of
// fifteen rounds (1.14-1.39x on a 2-vCPU AVX-512 guest; nine rounds read
// 1.00-1.43x). Without an accelerated tier the kernel is not
// bandwidth-bound, so the test skips. One retry absorbs a noisy neighbour.
func TestNarrowIndexGate(t *testing.T) {
	if simd.Level() == "scalar" {
		t.Skip("no accelerated tier: the scalar kernel is not bandwidth-bound")
	}
	const floor, workers = 1.08, 2
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(workers))
	exec.Prestart()
	m, err := gen.Generate(gen.Params{Rows: 3000, Cols: 3000, AvgNNZPerRow: 1000, StdNNZPerRow: 250,
		SkewCoeff: 0.5, BWScaled: 1, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	narrow, wide := newPreset("MKL-IE", m), newPreset("MKL-IE", widened(m))
	x := matrix.RandomVector(m.Cols, 6)
	xw, yn, yw := padX(m, x, 1), make([]float64, m.Rows), make([]float64, m.Rows)
	for attempt := 1; ; attempt++ {
		res, err := measure.Compare(context.Background(), []func() error{
			func() error { return narrow.Apply(context.Background(), yn, x, 1, workers) },
			func() error { return wide.Apply(context.Background(), yw, xw, 1, workers) },
		}, 15, 20*time.Millisecond)
		if err == nil {
			err = errors.Join(res[0].Err, res[1].Err)
		}
		if err != nil {
			t.Fatal(err)
		}
		ratio := res[1].MinNs / res[0].MinNs
		t.Logf("attempt %d, %s, %d lanes: uint16 %.3f ms (%d B), int32 %.3f ms (%d B): %.2fx", attempt, simd.Level(),
			workers, res[0].MinNs/1e6, narrow.Bytes(), res[1].MinNs/1e6, wide.Bytes(), ratio)
		if ratio >= floor {
			return
		}
		if attempt == 2 {
			t.Fatalf("narrow indices run %.2fx their int32 twin, floor %.2fx", ratio, floor)
		}
	}
}

// tierNs times fn under each dispatch tier in one measure.Compare, the
// tiers' rounds interleaved: gateRounds rounds of at least gateMinTime.
// A candidate swaps its table in when it takes over from the other, in
// the untimed call that leads its round. It returns min ns per call by
// tier, in order.
func tierNs(t *testing.T, levels []string, fn func() error) []float64 {
	t.Helper()
	const gateRounds, gateMinTime = 3, 20 * time.Millisecond
	cur := ""
	cands := make([]func() error, len(levels))
	for i, lvl := range levels {
		cands[i] = func() error {
			if cur != lvl {
				simd.SetLevel(lvl)
				cur = lvl
			}
			return fn()
		}
	}
	res, err := measure.Compare(context.Background(), cands, gateRounds, gateMinTime)
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]float64, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", levels[i], r.Err)
		}
		ns[i] = r.MinNs
	}
	return ns
}
