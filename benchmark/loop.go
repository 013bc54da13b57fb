package main

import (
	"sort"
	"sync"
	"time"
)

// opResult is what one operation of the closed loop reports. Latency is
// the operation alone (call entry to return; request write to last
// response byte) and excludes the client's own verification.
type opResult struct {
	multiply bool
	lat      time.Duration
	ok       bool
}

// opFunc runs operation seq of one client. verify asks for the result to
// be fully decoded and compared with its reference.
type opFunc func(client, seq int, verify bool) opResult

// loopStats accumulates one phase of the closed loop.
type loopStats struct {
	Windows   []window
	LatMs     [][]float64 // every operation's latency, per window
	Attempted int
	Failed    int
	// Ref holds the host-speed readings (Mnnz/s) taken around the windows
	// when the loop has a yardstick: one before the first window and one
	// after each, so window i lies between Ref[i] and Ref[i+1].
	Ref []float64
}

// allLatMs flattens the per-window latencies.
func (s loopStats) allLatMs() []float64 {
	var all []float64
	for _, w := range s.LatMs {
		all = append(all, w...)
	}
	return all
}

// rate is count per second of wall time over all the windows.
func (s loopStats) rate(count func(window) int) float64 {
	var n int
	var secs float64
	for _, w := range s.Windows {
		n += count(w)
		secs += w.Seconds
	}
	if secs == 0 {
		return 0
	}
	return float64(n) / secs
}

// slowdown returns, per window, how much slower than the nominal speed
// the host ran while the window was measured: nominal over the mean of
// the two readings the window lies between (1.25: the yardstick ran at
// four fifths of nominal). Multiplying a window's rate by it, or dividing
// its latencies by it, expresses them at the nominal host speed. A loop
// without readings, or without a nominal, gets 1 throughout.
func (s loopStats) slowdown(nominal float64) []float64 {
	out := make([]float64, len(s.Windows))
	for i := range out {
		out[i] = 1
		if nominal > 0 && i+1 < len(s.Ref) && s.Ref[i]+s.Ref[i+1] > 0 {
			out[i] = nominal / ((s.Ref[i] + s.Ref[i+1]) / 2)
		}
	}
	return out
}

// medianWindowRate is the rate every throughput metric reports: each
// window's count per second of its wall time, scaled by the window's
// slowdown, and of those the median — one noisy-neighbour burst moves one
// window, not the median. Windows without wall time are skipped.
func medianWindowRate(ws []window, slowdown []float64, count func(window) int) float64 {
	rates := make([]float64, 0, len(ws))
	for i, w := range ws {
		if w.Seconds > 0 {
			rates = append(rates, float64(count(w))/w.Seconds*slowdown[i])
		}
	}
	return median(rates)
}

func opsOf(w window) int        { return w.Ops }
func multipliesOf(w window) int { return w.Multiplies }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// loopState carries each client's operation counter across phases, so a
// client's rotation over its vectors (and serve-update's cells/multiply
// schedule) continues where the warm-up left it.
type loopState struct {
	seqs []int
	ref  *hostRef // nil: no host-speed readings
}

func newLoopState(clients int) *loopState { return &loopState{seqs: make([]int, clients)} }

// closedLoop runs nWindows windows of length dur. In each window every
// client issues its next operation only when the previous one returned —
// the callers are solvers and services that need y before they can form
// the next x, so a slow system receives less load. A window ends when its
// last in-flight operation returns and its wall time runs to that point.
// verifyEvery n compares 1 in n operations fully (1: all). barrier, if
// set, runs between windows with every client quiescent.
func (s *loopState) closedLoop(nWindows int, dur time.Duration, verifyEvery int, op opFunc, barrier func() (attempted, failed int)) loopStats {
	var st loopStats
	clients := len(s.seqs)
	type clientOut struct {
		ops, multiplies, failed int
		lat                     []float64
	}
	if s.ref != nil {
		st.Ref = append(st.Ref, s.ref.rate())
	}
	for w := 0; w < nWindows; w++ {
		outs := make([]clientOut, clients)
		start := time.Now()
		deadline := start.Add(dur)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				o := &outs[c]
				for time.Now().Before(deadline) {
					seq := s.seqs[c]
					s.seqs[c]++
					r := op(c, seq, seq%verifyEvery == 0)
					o.ops++
					if r.multiply {
						o.multiplies++
					}
					if !r.ok {
						o.failed++
					}
					o.lat = append(o.lat, float64(r.lat)/1e6)
				}
			}(c)
		}
		wg.Wait()
		win := window{Seconds: time.Since(start).Seconds()}
		var lat []float64
		for _, o := range outs {
			win.Ops += o.ops
			win.Multiplies += o.multiplies
			st.Failed += o.failed
			lat = append(lat, o.lat...)
		}
		st.LatMs = append(st.LatMs, lat)
		st.Attempted += win.Ops
		st.Windows = append(st.Windows, win)
		if barrier != nil {
			a, f := barrier()
			st.Attempted += a
			st.Failed += f
		}
		if s.ref != nil {
			st.Ref = append(st.Ref, s.ref.rate())
		}
	}
	return st
}

// newRunResult assembles an untraced run's result from its phases.
func newRunResult(e *env, w workload, in *inputs, format string, setups, setupRef []float64, warm, timed loopStats) *runResult {
	return &runResult{
		Seed:      e.seed,
		Format:    format,
		Attempted: len(setups) + warm.Attempted + timed.Attempted,
		Failed:    warm.Failed + timed.Failed,
		Metrics:   endToEndMetrics(timed, setups, setupRef, int64(in.m.NNZ()), w.RefRate),
		Windows:   timed.Windows,
		Info: map[string]float64{
			"gen.generate_s":          in.genS,
			"host.ref_mnnz_per_s":     runReading(setupRef, timed),
			"host.nominal_mnnz_per_s": w.RefRate,
			"host.raw_ops_per_s":      timed.rate(opsOf),
			"host.raw_setup_s":        median(setups),
			"host.raw_lat_ms_mean":    mean(timed.allLatMs()),
		},
	}
}

// runReading is the mean of all the run's host-speed readings: those
// around the set-ups and those around the timed windows.
func runReading(setupRef []float64, timed loopStats) float64 {
	return mean(append(append([]float64(nil), setupRef...), timed.Ref...))
}

// endToEndMetrics derives the judged metrics of one untraced run from its
// timed phase and cold set-ups, every one of them expressed at the
// workload's nominal host speed (README, "How steady it is"). Rates and
// the mean latency are medians over the windows; the percentiles are taken
// over all timed samples, each scaled by its own window's slowdown. The
// set-ups are scaled by the run's mean reading. Failed operations are
// excluded from the rates: ops_per_s counts verified operations only.
func endToEndMetrics(timed loopStats, setups, setupRef []float64, nnz int64, nominal float64) map[string]metric {
	ok := 1.0
	if timed.Attempted > 0 {
		ok = float64(timed.Attempted-timed.Failed) / float64(timed.Attempted)
	}
	slow := timed.slowdown(nominal)
	var means, lat []float64
	for i, w := range timed.LatMs {
		if len(w) == 0 {
			continue
		}
		means = append(means, mean(w)/slow[i])
		for _, x := range w {
			lat = append(lat, x/slow[i])
		}
	}
	sort.Float64s(lat)
	n := len(lat)
	runSlow := 1.0
	if r := runReading(setupRef, timed); nominal > 0 && r > 0 {
		runSlow = nominal / r
	}
	return map[string]metric{
		"ops_per_s":   {Value: ok * medianWindowRate(timed.Windows, slow, opsOf), Unit: "1/s"},
		"gflops":      {Value: ok * flops(nnz, 1) / 1e9 * medianWindowRate(timed.Windows, slow, multipliesOf), Unit: "GFLOP/s"},
		"lat_ms_mean": {Value: median(means), Unit: "ms", N: n},
		"lat_ms_p50":  {Value: percentile(lat, 0.50), Unit: "ms", N: n}, // context: not judged, see README
		"lat_ms_p95":  {Value: percentile(lat, 0.95), Unit: "ms", N: n},
		"setup_s":     {Value: median(setups) / runSlow, Unit: "s", N: len(setups)},
		"fail_ratio":  {Value: 1 - ok, Unit: "ratio"},
	}
}
