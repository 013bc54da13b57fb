//go:build gate

package update

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/measure"
	"repro/internal/testutil"
)

// TestOverlayRetainedGate prices the updatable overlay: with 1% of the
// base's nonzeros sitting in the active log as random never-seen cells
// (no base-row locality, applied through Set as a live writer would), the
// fused base+delta multiply must retain at least 0.85x of the bare
// Naive-CSR base's throughput on the same engine, at k = 1 and k = 8.
func TestOverlayRetainedGate(t *testing.T) {
	const fill, floor, k = 0.01, 0.85, 8
	const gateRounds, gateMinTime = 3, 20 * time.Millisecond
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
		// Base and fused are timed in one measure.Compare per k, their
		// rounds interleaved: this host's speed drifts over seconds, and
		// the verdict is their ratio.
		for _, c := range []struct {
			k    int
			x, y []float64
		}{{1, x1, y1}, {k, xk, yk}} {
			res, err := measure.Compare(context.Background(), []func() error{
				func() error { return base.Apply(context.Background(), c.y, c.x, c.k, workers) },
				func() error { return u.Apply(context.Background(), c.y, c.x, c.k, workers) },
			}, gateRounds, gateMinTime)
			if err == nil {
				err = errors.Join(res[0].Err, res[1].Err)
			}
			if err != nil {
				t.Fatalf("%s k=%d: %v", tier, c.k, err)
			}
			baseNs, fusedNs := res[0].MinNs, res[1].MinNs
			retained := baseNs / fusedNs
			t.Logf("%s k=%d: base %.3f ms, fused %.3f ms, retained %.2fx", tier, c.k, baseNs/1e6, fusedNs/1e6, retained)
			if retained < floor {
				t.Errorf("%s k=%d: overlay at %.0f%% fill retains %.2fx of pure base, floor %.2fx (%d workers)",
					tier, c.k, fill*100, retained, floor, workers)
			}
		}
	}
}
