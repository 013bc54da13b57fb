//go:build gate

package update

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// TestOverlayRetainedGate prices the updatable overlay: with 1% of the
// base's nonzeros sitting in the active log as random never-seen cells
// (no base-row locality, applied through Set as a live writer would), the
// fused base+delta multiply must retain at least 0.85x of the bare
// Naive-CSR base's throughput on the same engine, at k = 1 and k = 8.
func TestOverlayRetainedGate(t *testing.T) {
	const fill, floor, k = 0.01, 0.85, 8
	workers := exec.MaxWorkers()
	exec.Prestart()
	for _, tier := range []string{"small-80k", "medium-600k"} {
		m := testutil.GateTier(t, tier)
		b, _ := formats.Lookup("Naive-CSR")
		base, err := b.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		u, err := New(m, Options{Format: "Naive-CSR", NoAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		for i, n := 0, int(fill*float64(m.NNZ())); i < n; i++ {
			u.Set(rng.Intn(m.Rows), rng.Intn(m.Cols), 1+float64(i%7))
		}
		x1, y1 := matrix.RandomVector(m.Cols, 4), make([]float64, m.Rows)
		xk, yk := matrix.RandomVector(m.Cols*k, 6), make([]float64, m.Rows*k)
		// Base and fused are timed back to back per k: this host's speed
		// drifts over seconds, and the verdict is their ratio.
		for _, c := range []struct {
			k           int
			base, fused func()
		}{
			{1, func() { base.SpMVParallel(x1, y1, workers) }, func() { u.SpMVParallel(x1, y1, workers) }},
			{k, func() { base.MultiplyMany(yk, xk, k) }, func() { u.MultiplyMany(yk, xk, k) }},
		} {
			c.base() // warm plans and pools
			c.fused()
			baseNs, fusedNs := testutil.MinNsPerOp(c.base), testutil.MinNsPerOp(c.fused)
			retained := baseNs / fusedNs
			t.Logf("%s k=%d: base %.3f ms, fused %.3f ms, retained %.2fx", tier, c.k, baseNs/1e6, fusedNs/1e6, retained)
			if retained < floor {
				t.Errorf("%s k=%d: overlay at %.0f%% fill retains %.2fx of pure base, floor %.2fx (%d workers)",
					tier, c.k, fill*100, retained, floor, workers)
			}
		}
	}
}
