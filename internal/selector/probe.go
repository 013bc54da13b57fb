package selector

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/measure"
)

// Probe defaults.
const (
	// DefaultProbeRows is the row budget of the probe sub-matrix: large
	// enough that the parallel kernels leave the serial fast path and the
	// row-length distribution survives sampling, small enough that probing
	// three candidates costs milliseconds, not a solve iteration.
	DefaultProbeRows = 8192
	// probeRounds timed rounds of at least probeMinTime each per candidate
	// (measure.Compare): the probe's budget, a few milliseconds a
	// candidate.
	probeRounds  = 2
	probeMinTime = 2 * time.Millisecond
)

// probeRuns counts micro-probe invocations process-wide; the persistence CI
// gate asserts a warm restart performs zero.
var probeRuns atomic.Int64

// ProbeCount returns how many micro-probe sweeps this process has run.
func ProbeCount() int64 { return probeRuns.Load() }

// probe times the candidate formats at k on a row-sampled sub-matrix
// through the execution engine and returns the measured winner with every
// measured candidate's min ns per call. The sub-matrix keeps the full
// column dimension and a stride sample of the rows, so balance and
// x-locality behaviour carry over from the full matrix while build plus
// timing stays in the low milliseconds per candidate. winner is "" when
// every candidate failed to build or run, or ctx was cancelled. When the
// row budget covers the whole matrix (RowSample returns m itself), the
// probe already built every candidate at full cost, so the winner's built
// instance is returned for the caller to serve instead of rebuilding it.
func probe(ctx context.Context, m *matrix.CSR, names []string, k int) (winner string, built formats.Format, ns map[string]float64) {
	probeRuns.Add(1)
	var cands []formats.Builder
	for _, name := range names {
		if b, ok := formats.Lookup(name); ok {
			cands = append(cands, b)
		}
	}
	res, fs := timeCandidates(ctx, m, cands, k)
	i := fastest(res)
	if i < 0 {
		return "", nil, nil
	}
	ns = make(map[string]float64, len(res))
	for j, r := range res {
		if r.Err == nil {
			ns[cands[j].Name] = r.MinNs
		}
	}
	if fs != nil {
		built = fs[i]
	}
	return cands[i].Name, built, ns
}

// timeCandidates is the probe's harness: every candidate is built on the
// row-sampled sub-matrix, then one measure.Compare times their k-wide
// products through Format.Apply — the entry point production calls take —
// with the machine's parallelism, over the same x and y. A build refusal
// or a contained kernel fault disqualifies a candidate with its error. It
// returns one result per candidate, and the built instances when the
// sub-matrix is m itself; no results when ctx was cancelled: a cancelled
// probe is not a measurement.
func timeCandidates(ctx context.Context, m *matrix.CSR, cands []formats.Builder, k int) ([]measure.Result, []formats.Format) {
	sub := m.RowSample(DefaultProbeRows)
	x := matrix.RandomVector(sub.Cols*k, 9001)
	y := make([]float64, sub.Rows*k)
	workers := exec.MaxWorkers()
	exec.Prestart() // probes must not time pool construction
	fns := make([]func() error, len(cands))
	built := make([]formats.Format, len(cands))
	for i, b := range cands {
		f, err := b.Build(sub)
		if err != nil {
			fns[i] = func() error { return err } // disqualified at its first call
			continue
		}
		built[i] = f
		fns[i] = func() error { return f.Apply(ctx, y, x, k, workers) }
	}
	res, err := measure.Compare(ctx, fns, probeRounds, probeMinTime)
	if err != nil || sub != m {
		return res, nil
	}
	return res, built
}

// fastest returns the index of the minimum-ns result that measured (the
// earliest on a tie), or -1 when none did.
func fastest(res []measure.Result) int {
	best := -1
	for i, r := range res {
		if r.Err == nil && (best < 0 || r.MinNs < res[best].MinNs) {
			best = i
		}
	}
	return best
}
