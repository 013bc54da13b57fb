package selector

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
)

// Probe defaults.
const (
	// DefaultProbeRows is the row budget of the probe sub-matrix: large
	// enough that the parallel kernels leave the serial fast path and the
	// row-length distribution survives sampling, small enough that probing
	// three candidates costs milliseconds, not a solve iteration.
	DefaultProbeRows = 8192
	// defaultProbeMinTime is the wall-clock floor one timing sample must
	// reach; samples double their iteration count until they do.
	defaultProbeMinTime = 2 * time.Millisecond
	// defaultProbeRounds is the number of adaptive timing runs per
	// candidate; the minimum over rounds is kept (the least-noisy
	// estimator on shared hosts).
	defaultProbeRounds = 2
)

// probeRuns counts micro-probe invocations process-wide; the persistence CI
// gate asserts a warm restart performs zero.
var probeRuns atomic.Int64

// ProbeCount returns how many micro-probe sweeps this process has run.
func ProbeCount() int64 { return probeRuns.Load() }

// ProbeResult is one candidate's measured micro-benchmark.
type ProbeResult struct {
	Format  string
	NsPerOp float64 // min ns per kernel call on the sub-matrix (0 when Err != nil)
	Err     error   // build failure on the sub-matrix
}

// probe times the candidate formats at k on a row-sampled sub-matrix
// through the execution engine and returns the measured winner. The
// sub-matrix keeps the full column dimension and a stride sample of the
// rows, so balance and x-locality behaviour carry over from the full
// matrix while build plus timing stays in the low milliseconds per
// candidate. Results are in candidate order; winner is "" when every
// candidate failed to build. When the row budget covers the whole matrix
// (RowSample returns m itself), the probe already built every candidate
// at full cost, so the winner's built instance is returned for the caller
// to serve instead of rebuilding it. A cancelled ctx stops the candidate
// loop at the next boundary (a candidate's timed runs finish once
// started).
func probe(ctx context.Context, m *matrix.CSR, names []string, k int) (winner string, built formats.Format, results []ProbeResult) {
	probeRuns.Add(1)
	var cands []candidate
	for _, name := range names {
		if b, ok := formats.Lookup(name); ok {
			cands = append(cands, candidate{b: b})
		}
	}
	timings := timeCandidates(ctx, m, cands, k)
	if i := fastest(timings); i >= 0 {
		winner, built = cands[i].b.Name, timings[i].f
	}
	for i, t := range timings {
		results = append(results, ProbeResult{Format: cands[i].b.Name, NsPerOp: t.ns, Err: t.err})
	}
	return winner, built, results
}

// candidate is one configuration the harness times: a format and the
// tuning to build it with (the probe passes the zero Tuning, the autotune
// sweeps one format under several).
type candidate struct {
	b formats.Builder
	t formats.Tuning
}

// timing is one candidate's measurement.
type timing struct {
	ns  float64        // min ns per kernel call on the sub-matrix (0 when err != nil)
	err error          // build refusal or contained kernel fault: disqualified
	f   formats.Format // the timed instance, when it was built on the full matrix
}

// timeCandidates is the one harness behind the probe and the autotune
// sweeps: each candidate is built on the row-sampled sub-matrix and timed
// through timeApply over the same x and y. It returns one timing per
// candidate reached — the loop checks ctx between candidates (a
// candidate's timed runs finish once started), so a cancelled sweep
// returns a prefix.
func timeCandidates(ctx context.Context, m *matrix.CSR, cands []candidate, k int) []timing {
	sub := m.RowSample(DefaultProbeRows)
	x := matrix.RandomVector(sub.Cols*k, 9001)
	y := make([]float64, sub.Rows*k)
	timings := make([]timing, 0, len(cands))
	for _, c := range cands {
		if ctx.Err() != nil {
			break
		}
		f, err := c.b.BuildTuned(sub, c.t)
		var ns float64
		if err == nil {
			// A contained kernel fault disqualifies the candidate; a
			// cancelled ctx ends the loop at the check above.
			ns, err = timeApply(ctx, f, y, x, k)
		}
		if err != nil {
			timings = append(timings, timing{err: err})
			continue
		}
		if sub != m {
			f = nil
		}
		timings = append(timings, timing{ns: ns, f: f})
	}
	return timings
}

// fastest returns the index of the minimum-ns timing that measured (the
// earliest on a tie), or -1 when none did.
func fastest(timings []timing) int {
	best := -1
	for i, t := range timings {
		if t.err == nil && (best < 0 || t.ns < timings[best].ns) {
			best = i
		}
	}
	return best
}

// timeApply times f's k-wide product through Format.Apply — the entry point
// production calls take — with the machine's parallelism: one warm-up call
// (plans, scratch, pages, pool), then measureNs. It returns the first
// error Apply reports instead of a timing.
func timeApply(ctx context.Context, f formats.Format, y, x []float64, k int) (float64, error) {
	workers := exec.MaxWorkers()
	exec.Prestart() // probes must not time pool construction
	var failed error
	run := func() {
		if failed == nil {
			failed = f.Apply(ctx, y, x, k, workers)
		}
	}
	run()
	if failed != nil {
		return 0, failed
	}
	ns := measureNs(run, defaultProbeMinTime, defaultProbeRounds)
	return ns, failed
}

// measureNs returns the minimum ns per fn() call over the given number of
// adaptive timing runs, each doubling its iteration count until it spans
// minTime of wall clock.
func measureNs(fn func(), minTime time.Duration, rounds int) float64 {
	best := math.Inf(1)
	for rep := 0; rep < rounds; rep++ {
		iters := 1
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			elapsed := time.Since(start)
			if elapsed >= minTime || iters >= 1<<22 {
				if ns := float64(elapsed.Nanoseconds()) / float64(iters); ns < best {
					best = ns
				}
				break
			}
			iters *= 2
		}
	}
	return best
}
