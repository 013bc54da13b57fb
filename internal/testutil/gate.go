//go:build gate

package testutil

import (
	"math"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// gateTiers are the matrix scales the wall-clock gate tests judge their
// floors on: rows, mean and standard deviation of nonzeros per row.
var gateTiers = map[string][3]float64{
	"small-80k":   {8000, 10, 3},
	"medium-600k": {40000, 15, 4},
	"large-2M":    {100000, 20, 5},
}

// GateTier generates the named gate matrix: square, mildly skewed and
// clustered, seed 1, so every gate test reads its floor on the same
// operating point.
func GateTier(t *testing.T, name string) *matrix.CSR {
	t.Helper()
	p, ok := gateTiers[name]
	if !ok {
		t.Fatalf("unknown gate tier %q", name)
	}
	m, err := gen.Generate(gen.Params{
		Rows: int(p[0]), Cols: int(p[0]),
		AvgNNZPerRow: p[1], StdNNZPerRow: p[2],
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8,
		Seed: 1,
	})
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return m
}

// MinNsPerOp returns the minimum ns per fn() call over three timing runs,
// each doubling its iteration count until it lasts 20 ms — the
// least-noisy estimator on shared hosts.
func MinNsPerOp(fn func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		for iters := 1; ; iters *= 2 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			if elapsed := time.Since(start); elapsed >= 20*time.Millisecond || iters >= 1<<22 {
				best = math.Min(best, float64(elapsed.Nanoseconds())/float64(iters))
				break
			}
		}
	}
	return best
}
