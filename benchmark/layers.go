package main

import (
	"fmt"
	"runtime"
	"time"
)

// layerMetric names one per-layer metric of the traced run. The module it
// measures is the name's prefix. BENCHMARK.json lists the same table for
// the driver. A metric whose layer is not on a workload's path reads 0
// there (update.* off serve-update, serve.* on the library workloads).
type layerMetric struct {
	Name   string
	Unit   string
	Higher bool
}

var perLayer = []layerMetric{
	// The roof, measured in the same run. Nothing in the repository moves it.
	{"roofline.triad_gbps", "GB/s", true},
	{"roofline.triad_par_gbps", "GB/s", true},
	{"roofline.gather_ns", "ns", false},
	{"roofline.pct_roof", "%", true},
	// The kernel on the chosen format, serial; bytes are computed, not measured.
	{"formats.kernel_ms_p50", "ms", false},
	{"formats.kernel_gflops", "GFLOP/s", true},
	{"formats.kernel_gbps", "GB/s", true},
	{"formats.bytes_per_nnz", "B", false},
	{"formats.build_ms", "ms", false},
	{"formats.allocs_per_op", "count", false},
	{"formats.k8_per_vec_speedup", "x", true},
	{"simd.speedup_vs_scalar", "x", true},
	{"exec.dispatch_us_p50", "us", false},
	{"exec.parallel_speedup", "x", true},
	{"exec.busy_ratio", "ratio", true},
	{"exec.spawn_fallbacks", "count", false},
	{"device.model_err_pct", "%", false},
	// Set-up layers: they move setup_s, never a steady-state metric.
	{"gen.generate_s", "s", false},
	{"matrix.mm_parse_mb_per_s", "MB/s", true},
	{"core.extract_ms", "ms", false},
	{"selector.auto_model_ms", "ms", false},
	{"selector.auto_probe_ms", "ms", false},
	{"selector.probes", "count", false},
	{"cache.warm_auto_ms", "ms", false},
	{"cache.hit_ratio", "ratio", true},
	{"session.open_ms", "ms", false},
	// The serving layers.
	{"serve.decode_ms_p50", "ms", false},
	{"serve.encode_ms_p50", "ms", false},
	{"serve.req_bytes", "B", false},
	{"serve.resp_bytes", "B", false},
	{"serve.registry_get_us_p50", "us", false},
	{"serve.coalesce_ms_p50", "ms", false},
	{"serve.coalesce_self_ms_p50", "ms", false},
	{"serve.mean_batch", "count", true},
	{"serve.flush_window_ratio", "ratio", false},
	{"serve.http_self_ms_p50", "ms", false},
	{"serve.lone_lat_ms_p50", "ms", false},
	{"serve.lat_ms_p99", "ms", false},
	{"serve.upload_s", "s", false},
	{"serve.peak_rss_mb", "MB", false},
	// The update overlay.
	{"update.set_us_p50", "us", false},
	{"update.cells_ms_p50", "ms", false},
	{"update.multiply_overhead", "x", false},
	{"update.compactions", "count", true},
	{"update.compact_ms_p50", "ms", false},
	{"update.freeze_ms_max", "ms", false},
	{"update.commit_parks", "count", false},
	{"update.overlay_fill_pct", "%", false},
	// Each layer's share of one operation's blocking path.
	{"share.kernel_pct", "%", true},
	{"share.exec_pct", "%", false},
	{"share.facade_pct", "%", false},
	{"share.coalesce_pct", "%", false},
	{"share.codec_pct", "%", false},
	{"share.http_pct", "%", false},
	// The cost of tracing itself: reported, not gated.
	{"trace.overhead_pct", "%", false},
	{"trace.spans", "count", true},
}

// newLayerResult returns a result holding every per-layer metric at 0, so
// each is present on every workload.
func newLayerResult() *layerResult {
	l := &layerResult{Metrics: make(map[string]metric, len(perLayer))}
	for _, m := range perLayer {
		l.Metrics[m.Name] = metric{Unit: m.Unit}
	}
	return l
}

// set records a per-layer metric; n is the sample count of a percentile.
// A name outside the table is a bug in the benchmark.
func (l *layerResult) set(name string, v float64, n ...int) {
	m, ok := l.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: %q is not in the per-layer table", name))
	}
	m.Value = v
	if len(n) > 0 {
		m.N = n[0]
	}
	l.Metrics[name] = m
}

// setShares records each layer's share of one operation's blocking path
// as share.<layer>_pct, from the layers' p50 self times in milliseconds.
func (l *layerResult) setShares(layerMs map[string]float64) {
	for name, pct := range shares(layerMs) {
		l.set("share."+name+"_pct", pct)
	}
}

func (l *layerResult) notef(format string, args ...any) {
	l.Notes = append(l.Notes, fmt.Sprintf(format, args...))
}

// sample calls f until budget is spent and at least minIters times, and
// returns each call's duration in milliseconds.
func sample(budget time.Duration, minIters int, f func()) []float64 {
	var ms []float64
	for start := time.Now(); len(ms) < minIters || time.Since(start) < budget; {
		t0 := time.Now()
		f()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return ms
}

// p50 is the nearest-rank median of unsorted samples.
func p50(ms []float64) float64 { return percentile(sortedCopy(ms), 0.5) }

// allocsPerCall counts heap allocations per call of f exactly, from the
// runtime's malloc counter, at the run's real GOMAXPROCS (the engine's
// parallel path stays engaged, which testing.AllocsPerRun's GOMAXPROCS(1)
// would bypass). The minimum of three rounds drops a stray background
// allocation.
func allocsPerCall(calls int, f func()) float64 {
	f() // first-use plans and scratch are set-up, not steady state
	best := -1.0
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if a := float64(after.Mallocs-before.Mallocs) / float64(calls); best < 0 || a < best {
			best = a
		}
	}
	return best
}
