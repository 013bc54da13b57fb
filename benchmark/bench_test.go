package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 5}, {0.95, 10}, {0.90, 9}, {0.10, 1}, {0.11, 2}, {1, 10}, {0.0001, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// p95 of 20 samples is the 19th: one sample lies beyond it.
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	if got := percentile(twenty, 0.95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
}

func TestMedianWindowRate(t *testing.T) {
	ws := []window{{Ops: 100, Seconds: 1}, {Ops: 102, Seconds: 1}, {Ops: 10, Seconds: 1}, {Ops: 98, Seconds: 1}, {Ops: 101, Seconds: 1}}
	one := []float64{1, 1, 1, 1, 1}
	if got := medianWindowRate(ws, one, opsOf); got != 100 {
		t.Errorf("median window rate = %v, want 100: one burst window must not move it", got)
	}
	// Rates, not counts: a window that ran long is not a faster window.
	ws = []window{{Ops: 100, Seconds: 2}, {Ops: 60, Seconds: 1}, {Ops: 70, Seconds: 1}, {Ops: 5, Seconds: 0}}
	if got := medianWindowRate(ws, one, opsOf); got != 60 {
		t.Errorf("median window rate = %v, want 60 (the zero-length window is dropped)", got)
	}
	if got := medianWindowRate([]window{{Ops: 5, Multiplies: 4, Seconds: 1}}, one, multipliesOf); got != 4 {
		t.Errorf("multiply rate = %v, want 4", got)
	}
	if got := medianWindowRate(nil, nil, opsOf); got != 0 {
		t.Errorf("rate of no windows = %v, want 0", got)
	}
}

func TestSlowdownIsNominalOverTheAdjacentReadings(t *testing.T) {
	s := loopStats{Windows: make([]window, 3), Ref: []float64{100, 100, 50, 50}}
	got := s.slowdown(100)
	if got[0] != 1 || got[1] != 100.0/75 || got[2] != 2 {
		t.Errorf("slowdown = %v, want [1 1.333 2]", got)
	}
	for _, s := range []loopStats{{Windows: make([]window, 2)}, {Windows: make([]window, 2), Ref: []float64{0, 0, 0}}} {
		if got := s.slowdown(100); got[0] != 1 || got[1] != 1 {
			t.Errorf("slowdown without usable readings = %v, want 1 throughout", got)
		}
	}
	if got := s.slowdown(0); got[2] != 1 {
		t.Errorf("slowdown without a nominal = %v, want 1 throughout", got)
	}
}

// A host that slows to half speed during the run lowers the raw rates and
// stretches the raw latencies of the windows it touches; expressed at the
// nominal speed, the run reads as if the host had been steady.
func TestMetricsAreExpressedAtNominalHostSpeed(t *testing.T) {
	fast := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	stretched := func(by float64) []float64 {
		out := make([]float64, len(fast))
		for i, x := range fast {
			out[i] = x * by
		}
		return out
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	s := loopStats{
		// The middle window lies between a fast and a slow reading: the
		// host ran at three quarters of nominal while it was measured.
		Windows: []window{{Ops: 10, Multiplies: 10, Seconds: 1}, {Ops: 15, Multiplies: 15, Seconds: 2}, {Ops: 5, Multiplies: 5, Seconds: 1}},
		LatMs:   [][]float64{fast, stretched(4.0 / 3), stretched(2)},
		Ref:     []float64{200, 200, 100, 100},
	}
	m := endToEndMetrics(s, []float64{0.5, 0.3, 0.4}, []float64{100, 100}, 1000, 200)
	if got := m["ops_per_s"].Value; !near(got, 10) {
		t.Errorf("ops_per_s = %v, want 10 in every window once scaled", got)
	}
	if got := m["gflops"].Value; !near(got, 10*2000/1e9) {
		t.Errorf("gflops = %v, want %v", got, 10*2000/1e9)
	}
	if got := m["lat_ms_mean"].Value; !near(got, 1.1) {
		t.Errorf("mean latency = %v, want 1.1", got)
	}
	if p := m["lat_ms_p95"]; !near(p.Value, 2) || p.N != 30 {
		t.Errorf("p95 = %v over %d samples, want 2 over all 30", p.Value, p.N)
	}
	// Set-ups are scaled by the run's mean reading, (100+100+200+200+100+100)/6.
	if got, want := m["setup_s"].Value, 0.4*(800.0/6)/200; !near(got, want) {
		t.Errorf("setup_s = %v, want the median 0.4 scaled to %v", got, want)
	}
	raw := endToEndMetrics(s, []float64{0.4}, nil, 1000, 0)
	if got := raw["ops_per_s"].Value; got != 7.5 {
		t.Errorf("without a nominal the raw median window rate is reported, got %v, want 7.5", got)
	}
	if got := raw["setup_s"].Value; got != 0.4 {
		t.Errorf("without a nominal the raw set-up time is reported, got %v", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{10, 11, 12}, 10, 12},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
	if got := spreadShare([]float64{42}); got != 0 {
		t.Errorf("a single run has no spread, got %v", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},     // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},    // clipped to the parent: 90..100
		{ID: 5, Parent: 3, Name: "b.kid", Start: 25, End: 45}, // a grandchild is its parent's, not root's
		{ID: 6, Parent: 9, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfMsByName(spans)
	if got := byName["root"][0]; got != 50e-6 {
		t.Errorf("root self = %v ms, want 5e-05", got)
	}
}

func TestReconstructClipsToParent(t *testing.T) {
	tr := newTracer()
	p := tr.begin("parent", 0, 7)
	time.Sleep(2 * time.Millisecond)
	tr.end(p)
	kid := tr.reconstruct("kid", p, 0, time.Hour)
	late := tr.reconstruct("late", p, time.Hour, time.Second)
	spans := tr.since(0)
	parent, k, l := spans[p-1], spans[kid-1], spans[late-1]
	if k.Start != parent.Start || k.End != parent.End || !k.Reconstructed || k.Op != 7 {
		t.Errorf("kid = %+v, want clipped to parent %+v, reconstructed, op 7", k, parent)
	}
	if l.Start != parent.End || l.End != parent.End {
		t.Errorf("late = %+v, want empty at the parent's end", l)
	}
	if self := selfTimes(spans)[p]; self != 0 {
		t.Errorf("fully covered parent has self time %d, want 0", self)
	}
	var off *tracer
	off.end(off.begin("nothing", 0, 0)) // tracing off must be callable
}

func TestSharesSumToHundred(t *testing.T) {
	got := shares(map[string]float64{"kernel": 3, "codec": 1})
	if got["kernel"] != 75 || got["codec"] != 25 {
		t.Errorf("shares = %v", got)
	}
	if got := shares(map[string]float64{"kernel": 0}); got["kernel"] != 0 {
		t.Errorf("shares of nothing = %v", got)
	}
}

func TestJudge(t *testing.T) {
	ops := e2eMetric{Name: "ops_per_s", Higher: true, Bound: 0.10}
	p50 := e2eMetric{Name: "lat_ms_mean", Bound: 0.10}
	setup := e2eMetric{Name: "setup_s", Bound: 0.20, AbsFloor: 0.050}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, c := range []struct {
		name         string
		m            e2eMetric
		base, change []float64
		want         string
	}{
		{"same", ops, tight(100), tight(100), pass},
		{"5% slower is inside the bound", ops, tight(100), tight(95), pass},
		{"15% slower", ops, tight(100), tight(85), regressed},
		{"15% faster", ops, tight(100), tight(115), pass},
		{"latency 15% up", p50, tight(10), tight(11.5), regressed},
		{"latency 15% down", p50, tight(10), tight(8.5), pass},
		{"noisy base cannot resolve a 15% loss", ops, []float64{70, 100, 130, 100, 100}, tight(85), unresolved},
		{"noisy, but every change run beats every base run", ops, []float64{70, 100, 130, 100, 100}, tight(200), pass},
		{"single runs have no spread", ops, []float64{100}, []float64{80}, regressed},
		{"setup 50% up but only 1 ms", setup, tight(0.002), tight(0.003), pass},
		{"setup 50% up and 500 ms", setup, tight(1), tight(1.5), regressed},
		{"setup 10% up", setup, tight(1), tight(1.1), pass},
		{"missing", ops, tight(100), nil, unresolved},
	} {
		if got := judge(c.m, c.base, c.change); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func oneRun(format string, ops, fail float64) workloadReport {
	return workloadReport{Name: "w", Runs: []runResult{{Format: format, Metrics: map[string]metric{
		"ops_per_s": {Value: ops}, "gflops": {Value: 1}, "lat_ms_mean": {Value: 1}, "lat_ms_p95": {Value: 1},
		"setup_s": {Value: 1}, "fail_ratio": {Value: fail},
	}}}}
}

func TestCompareReports(t *testing.T) {
	verdicts := func(a, b workloadReport) map[string]string {
		out := map[string]string{}
		for _, r := range compareReports(&report{Workloads: []workloadReport{a}}, &report{Workloads: []workloadReport{b}}) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	v := verdicts(oneRun("CSR", 100, 0), oneRun("CSR", 70, 0.01))
	if v["ops_per_s"] != regressed || v["gflops"] != pass || v["fail_ratio"] != regressed {
		t.Errorf("verdicts = %v", v)
	}
	if v := verdicts(oneRun("CSR", 100, 0), oneRun("CSR", 100, 0.0005)); v["fail_ratio"] != pass {
		t.Errorf("a 0.0005 rise of fail_ratio is inside the rule, got %v", v)
	}
	if v := verdicts(oneRun("CSR", 100, 0), oneRun("HYB", 50, 0)); len(v) != 1 || v["*"] != unresolved {
		t.Errorf("runs that chose different formats must be flagged, not compared: %v", v)
	}
	rows := compareReports(&report{Workloads: []workloadReport{oneRun("CSR", 1, 0)}}, &report{})
	if len(rows) != 1 || rows[0].Verdict != unresolved {
		t.Errorf("a workload missing from the second report: %+v", rows)
	}
}

func TestMatchesTolerance(t *testing.T) {
	ref := []float64{0, 1, -1e6, 1e-12}
	ok := []float64{1e-10, 1 + 5e-10, -1e6 * (1 + 5e-10), 0}
	if !matches(ok, ref) {
		t.Error("results inside 1e-9*max(1,|ref|) must match")
	}
	for i, bad := range [][]float64{
		{2e-9, 1, -1e6, 0},
		{0, 1, -1e6 * (1 + 2e-9), 0},
		{0, math.NaN(), -1e6, 0},
		{0, 1, -1e6},
	} {
		if matches(bad, ref) {
			t.Errorf("case %d must not match", i)
		}
	}
}

// The mirror's product must equal a plain recomputation from its cells.
func TestMirrorProduct(t *testing.T) {
	p := tier(300, 8)
	p.Seed = 3
	m, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	mi := newMirror(m, 3, 2)
	var ops [][]serve.CellOp
	for i := 0; i < 6; i++ {
		c := i % 2
		b := mi.nextBatch(c)
		for _, op := range b {
			if op.Row%2 != c {
				t.Fatalf("client %d wrote row %d, which it does not own", c, op.Row)
			}
		}
		mi.apply(c, b)
		ops = append(ops, b)
	}
	if got := mi.applied(); got != 6*cellsPerPost {
		t.Fatalf("applied = %d, want %d", got, 6*cellsPerPost)
	}
	dense := map[[2]int]float64{}
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			dense[[2]int{r, int(c)}] = vals[i]
		}
	}
	deletes := 0
	for _, b := range ops {
		for _, op := range b {
			if op.Delete {
				deletes++
				delete(dense, [2]int{op.Row, op.Col})
			} else {
				dense[[2]int{op.Row, op.Col}] = op.Val
			}
		}
	}
	if deletes != 6*cellsPerPost/deleteEvery {
		t.Errorf("%d deletes, want 1 in %d", deletes, deleteEvery)
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, m.Rows)
	for cell, v := range dense {
		want[cell[0]] += v * x[cell[1]]
	}
	if got := mi.product(x); !matches(got, want) {
		t.Error("mirror product differs from the recomputed product")
	}
}

// benchmarkJSON is the driver's contract file at the root of the tree.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// BENCHMARK.json and the program's tables say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != better(m.Higher) || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v is above the contract's 0.25", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := b.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != better(m.Higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
}

// The result line has the contract's four keys, and each metric exactly a
// value and a unit: a sample count beside a percentile gets the line refused.
func TestDriverLineHoldsOnlyTheContractsKeys(t *testing.T) {
	line, err := json.Marshal(driverResult{Correct: true, Attempted: 1, Metrics: map[string]lineMetric{"lat_ms_p95": {Value: 1.5, Unit: "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool                             `json:"correct"`
		Attempted *int                              `json:"attempted"`
		Failed    *int                              `json:"failed"`
		Metrics   map[string]map[string]interface{} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("%s lacks one of correct, attempted, failed", line)
	}
	m := got.Metrics["lat_ms_p95"]
	if len(m) != 2 || m["value"] != 1.5 || m["unit"] != "ms" {
		t.Errorf("metric is %v, want exactly value 1.5 and unit ms", m)
	}
}

// TestSmoke runs the whole report at 1 s per workload and checks its
// shape: every workload, every named metric, no failed operation. It
// asserts no timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run boots daemons and takes about a minute")
	}
	e, err := newEnv(1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.scratch)
	defer killLive()
	rep, spans, failed, err := buildReport(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("%d operations failed", failed)
	}
	if h := rep.Host; h.Clients < 1 || h.NProc < 1 || h.GoVersion == "" || h.LLCBytes <= 0 || h.SIMDLevel == "" {
		t.Errorf("host descriptor incomplete: %+v", h)
	}
	for _, w := range workloads {
		wr := rep.workload(w.Name)
		if wr == nil || len(wr.Runs) != 1 || wr.Layers == nil {
			t.Fatalf("%s: missing from the report", w.Name)
		}
		run := wr.Runs[0]
		if run.Format == "" || run.Attempted < 1 || len(run.Windows) != minWindows {
			t.Errorf("%s: run = %+v", w.Name, run)
		}
		for _, m := range endToEnd {
			if got, ok := run.Metrics[m.Name]; !ok || !(got.Value > 0) || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, m.Name, got)
			}
		}
		if fr, ok := run.Metrics["fail_ratio"]; !ok || fr.Value != 0 {
			t.Errorf("%s: fail_ratio = %+v, want 0", w.Name, fr)
		}
		for _, m := range perLayer {
			if got, ok := wr.Layers.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", w.Name, m.Name, got)
			}
		}
		if len(wr.Layers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, the table has %d", w.Name, len(wr.Layers.Metrics), len(perLayer))
		}
		if len(spans[w.Name]) == 0 {
			t.Errorf("%s: no spans", w.Name)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}
