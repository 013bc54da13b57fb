//go:build gate

package selector

// Wall-clock gates live behind the gate build tag so the default test run
// stays deterministic on any host: go test -tags gate -run 'Gate|Budget'.

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/measure"
)

// TestAutoRetainedGate is the CI accuracy regression gate on real
// kernels: over a small synthetic suite, the probe-backed Auto path must
// retain >= 90% of the performance of the measured-best format, on
// average, at k = 1 and k = 8. One re-measurement is allowed per regime:
// the gate compares two wall-clock timings, and shared CI hosts jitter.
func TestAutoRetainedGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	type cfg struct {
		rows      int
		avg, skew float64
		seed      int64
	}
	suite := []cfg{
		{30000, 8, 0, 1},
		{30000, 20, 50, 2},
		{20000, 50, 5, 3},
		{40000, 10, 500, 4},
		{25000, 30, 0, 5},
		{35000, 15, 100, 6},
	}
	var mats []*matrix.CSR
	for _, c := range suite {
		m, err := gen.Generate(gen.Params{
			Rows: c.rows, Cols: c.rows,
			AvgNNZPerRow: c.avg, StdNNZPerRow: c.avg * 0.3,
			SkewCoeff: c.skew, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 0.9,
			Seed: c.seed,
		})
		if err != nil {
			t.Fatalf("generate %+v: %v", c, err)
		}
		mats = append(mats, m)
	}
	exec.Prestart()
	for _, k := range []int{1, 8} {
		mean := gateMeanRetained(t, mats, k)
		if mean < retainedGate {
			// One retry: re-measure the whole regime before failing.
			t.Logf("k=%d: mean retained %.3f below gate on first pass; re-measuring", k, mean)
			if remeasured := gateMeanRetained(t, mats, k); remeasured > mean {
				mean = remeasured
			}
		}
		t.Logf("k=%d: Auto mean retained %.3f over %d matrices", k, mean, len(mats))
		if mean < retainedGate {
			t.Errorf("k=%d: Auto retains %.3f of exhaustive-search performance, gate is %.2f",
				k, mean, retainedGate)
		}
	}
}

// gateMeanRetained measures every host format and the Auto pick on each
// matrix and returns the mean retained performance for the regime. Each
// pass selects under a fresh decision cache, as a new session would: a
// probe outcome may steer the later matrices' shortlists through the
// vote, and a re-measured pass selects afresh instead of recalling the
// first pass's decisions.
func gateMeanRetained(t *testing.T, mats []*matrix.CSR, k int) float64 {
	t.Helper()
	dc := cache.NewDecisionCache()
	var sum float64
	var n int
	for _, m := range mats {
		a, err := BuildAuto(m, AutoOptions{K: k, Probe: true, Cache: dc})
		if err != nil {
			t.Fatalf("k=%d: BuildAuto: %v", k, err)
		}
		perf := gateMeasure(t, m, k)
		pickNs, ok := perf[a.Chosen()]
		if !ok || pickNs <= 0 {
			t.Fatalf("k=%d: pick %q not measurable", k, a.Chosen())
		}
		best, bestName := math.Inf(1), ""
		for name, ns := range perf {
			if ns < best {
				best, bestName = ns, name
			}
		}
		t.Logf("k=%d, %d rows, %d nnz: pick %s, oracle best %s, retained %.3f", k, m.Rows, m.NNZ(), a.Chosen(), bestName, best/pickNs)
		sum += best / pickNs
		n++
	}
	if n == 0 {
		t.Fatal("no matrices measured")
	}
	return sum / float64(n)
}

// gateMeasure times one k-wide multiply in every buildable host format,
// all of them in one measure.Compare: gateRounds rounds of at least
// gateMinTime (deliberately more patient than the probe: this is the
// ground truth side of the gate). It returns min ns/op by format.
func gateMeasure(t *testing.T, m *matrix.CSR, k int) map[string]float64 {
	const gateRounds, gateMinTime = 3, 8 * time.Millisecond
	t.Helper()
	workers := exec.MaxWorkers()
	x := matrix.RandomVector(m.Cols*k, 31)
	y := make([]float64, m.Rows*k)
	var names []string
	var fns []func() error
	for _, name := range device.HostSpec().Formats {
		b, ok := formats.Lookup(name)
		if !ok {
			continue
		}
		f, err := b.Build(m)
		if err != nil {
			continue
		}
		names = append(names, name)
		fns = append(fns, func() error { return f.Apply(context.Background(), y, x, k, workers) })
	}
	res, err := measure.Compare(context.Background(), fns, gateRounds, gateMinTime)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]float64{}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s k=%d: %v", names[i], k, r.Err)
		}
		perf[names[i]] = r.MinNs
	}
	return perf
}
