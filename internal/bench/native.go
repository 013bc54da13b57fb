package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/simd"
	"repro/internal/stats"
	"repro/internal/topo"
)

// NativeScaleMB is the footprint the native experiment scales matrices to
// fit within; real kernels on the host cannot reasonably allocate the
// paper's 2 GiB matrices in a test environment.
const NativeScaleMB = 24.0

// RunNative measures real format kernels (not models) on the host CPU over
// a scaled-down feature grid, producing the Fig 7-style per-format summary
// with actual wall-clock GFLOPS. This is the measurement path the paper
// used on its CPU testbeds, at reduced scale. It is the one experiment
// that touches the execution engine, so the shards report rides along.
func RunNative(o Options) []*Report {
	points := nativePoints(o)
	engine := device.NativeEngine{Workers: o.Workers, Iterations: 8}
	series := map[string][]float64{}
	var perPoint []map[string]float64
	built := 0
	for i, fv := range points {
		p := gen.FromFeatures(fv, o.Seed+int64(i))
		m, err := gen.Generate(p)
		if err != nil {
			continue
		}
		built++
		sample := map[string]float64{}
		for _, b := range formats.Registry() {
			res := engine.Run(m, b)
			if res.Err != nil || res.GFLOPS <= 0 {
				continue
			}
			sample[res.Format] = res.GFLOPS
			series[res.Format] = append(series[res.Format], res.GFLOPS)
		}
		perPoint = append(perPoint, sample)
	}
	wins := stats.Winners(perPoint)
	r := &Report{ID: "native", Title: fmt.Sprintf("Native host kernels over %d generated matrices (scaled to <=%gMB)", built, NativeScaleMB),
		Header: []string{"format", "wins", "n", "q1", "median", "q3", "max"}}
	for _, f := range sortedKeys(series) {
		s := stats.Summarize(series[f])
		r.AddRow(f, fmtPct(wins[f]), fmt.Sprintf("%d", s.N),
			fmtG(s.Q1), fmtG(s.Median), fmtG(s.Q3), fmtG(s.Max))
	}
	r.AddNote("measured wall-clock GFLOPS with up to %d workers; absolute values depend on this host", engine.EffectiveWorkers())
	r.AddNote("execution engine: %d pool shard(s) over %d topology domain(s); see the shards report for per-shard dispatch",
		topo.Shards(), topo.NumDomains())
	r.AddNote("SIMD dispatch level: %s", simd.Level())
	return []*Report{r, ShardReport()}
}

// ShardReport snapshots the execution engine's per-shard dispatch counters
// as a report, the observability surface the native experiment appends to
// its table: which shard served how many dispatches, how many calls
// gang-scheduled across shards, cumulative busy wall time per shard, how
// the lanes posted to its workers were taken (by a polling worker, by a
// parked one, or back by the caller), and how often every shard was busy
// and a call fell back to spawned goroutines.
func ShardReport() *Report {
	st := exec.Stats()
	r := &Report{
		ID:    "shards",
		Title: fmt.Sprintf("Execution engine dispatch over %d pool shard(s)", len(st.Shards)),
		Header: []string{"shard", "domain", "workers", "runs", "gang_runs", "busy_s",
			"hot_handoffs", "parked_wakes", "caller_claims"},
	}
	for _, s := range st.Shards {
		r.AddRow(fmt.Sprintf("%d", s.Shard), fmt.Sprintf("%d", s.Domain),
			fmt.Sprintf("%d", s.Workers), fmt.Sprintf("%d", s.Runs),
			fmt.Sprintf("%d", s.GangRuns), fmt.Sprintf("%.4f", s.Busy.Seconds()),
			fmt.Sprintf("%d", s.HotHandoffs), fmt.Sprintf("%d", s.ParkedWakes),
			fmt.Sprintf("%d", s.CallerClaims))
	}
	r.AddNote("topology: %d domain(s); shard count resolves SetShards > SPMV_SHARDS > detected domains",
		topo.NumDomains())
	r.AddNote("spawn fallbacks (dispatches that found every shard busy): %d", st.SpawnFallbacks)
	return r
}

// nativePoints picks a small diverse feature sample and scales footprints
// down to NativeScaleMB so real matrices stay allocatable.
func nativePoints(o Options) []core.FeatureVector {
	n := o.SampleN
	if n <= 0 {
		n = 24
	}
	raw := o.Dataset.Sample(n, o.Seed)
	out := make([]core.FeatureVector, 0, len(raw))
	for _, fv := range raw {
		if fv.MemFootprintMB > NativeScaleMB {
			fv = fv.Scale(NativeScaleMB / fv.MemFootprintMB)
			fv.MemFootprintMB = NativeScaleMB
		}
		// Infeasible skews degrade generation quality; clamp to the shape
		// bound like the generator does.
		if maxSkew := float64(fv.Cols)/fv.AvgNNZPerRow - 1; fv.SkewCoeff > maxSkew {
			fv.SkewCoeff = maxSkew
		}
		out = append(out, fv)
	}
	return out
}
