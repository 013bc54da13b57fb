package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fastOptions keeps experiment tests quick: a small subsample of the grid.
func fastOptions() Options {
	return Options{Dataset: dataset.Medium, SampleN: 400, Seed: 1}
}

func TestExperimentRegistry(t *testing.T) {
	// The paper's Tables II-IV and Figs 1-9 in paper order, plus native.
	want := "table2 table3 fig1 table4 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 native"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("experiment ids = %q, want %q", got, want)
	}
	if e, ok := ByID("native"); !ok || e.ID != "native" {
		t.Errorf("ByID(native) = %+v, %v", e.ID, ok)
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown experiment id resolved")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := r.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := csvBuf.String(); got != "a,bb\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestTable2And3Encode(t *testing.T) {
	t2 := RunTable2(fastOptions())
	if len(t2) != 1 || len(t2[0].Rows) != 9 {
		t.Errorf("table2: %d reports, %d rows", len(t2), len(t2[0].Rows))
	}
	t3 := RunTable3(fastOptions())
	if len(t3[0].Rows) != 45 {
		t.Errorf("table3 rows = %d, want 45", len(t3[0].Rows))
	}
}

func TestTable4ValidationError(t *testing.T) {
	reports := RunTable4(fastOptions())
	if len(reports) != 1 {
		t.Fatal("want one report")
	}
	r := reports[0]
	if len(r.Rows) != 10 { // 9 devices + average
		t.Fatalf("rows = %d, want 10", len(r.Rows))
	}
	// The reproduction's validation claim: feature-similar matrices perform
	// similarly. MAPE per device must stay within a sane band and APE-best
	// must beat MAPE (the paper's qualitative result).
	for _, row := range r.Rows {
		mape := parsePct(t, row[1])
		best := parsePct(t, row[2])
		if mape < 0 || mape > 60 {
			t.Errorf("%s: MAPE %.2f%% outside [0, 60]", row[0], mape)
		}
		if best > mape+1e-9 {
			t.Errorf("%s: APE-best %.2f%% exceeds MAPE %.2f%%", row[0], best, mape)
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func TestFig1ReportsPerDevice(t *testing.T) {
	o := fastOptions()
	o.Devices = []string{"Tesla-A100", "Alveo-U280"}
	reports := RunFig1(o)
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	for _, r := range reports {
		if len(r.Rows) != 45 {
			t.Errorf("%s: rows = %d, want 45", r.Title, len(r.Rows))
		}
	}
	// The FPGA must reject some big matrices, echoing the paper's 10.
	fpga := reports[1]
	failed := 0
	for _, row := range fpga.Rows {
		if row[1] == "FAILED" {
			failed++
		}
	}
	if failed < 3 || failed > 20 {
		t.Errorf("FPGA failures = %d, want a handful like the paper's 10", failed)
	}
}

func TestFig2Rankings(t *testing.T) {
	o := fastOptions()
	reports := RunFig2(o)
	if len(reports) != 2 {
		t.Fatal("fig2 should produce performance and efficiency reports")
	}
	perf := medianByDevice(t, reports[0], 4)
	eff := medianByDevice(t, reports[1], 4)

	// Takeaway 2: the A100 leads everyone on median performance.
	for dev, v := range perf {
		if dev != "Tesla-A100" && v > perf["Tesla-A100"] {
			t.Errorf("%s median %.2f beats the A100 %.2f", dev, v, perf["Tesla-A100"])
		}
	}
	// Takeaway 3: the FPGA leads everyone on median energy efficiency.
	for dev, v := range eff {
		if dev != "Alveo-U280" && v > eff["Alveo-U280"] {
			t.Errorf("%s efficiency median %.4f beats the U280 %.4f", dev, v, eff["Alveo-U280"])
		}
	}
	// ARM-NEON is the most energy-efficient CPU.
	for _, dev := range []string{"AMD-EPYC-24", "AMD-EPYC-64", "INTEL-XEON", "IBM-POWER9"} {
		if eff[dev] > eff["ARM-NEON"] {
			t.Errorf("%s efficiency %.4f beats ARM-NEON %.4f", dev, eff[dev], eff["ARM-NEON"])
		}
	}
}

func medianByDevice(t *testing.T, r *Report, col int) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, row := range r.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("bad median %q", row[col])
		}
		out[row[0]] = v
	}
	return out
}

func TestFig3FootprintTrends(t *testing.T) {
	o := fastOptions()
	o.SampleN = 0 // need full grid for per-bucket favorable counts
	reports := RunFig3(o)
	if len(reports) != 3 {
		t.Fatalf("fig3 reports = %d", len(reports))
	}
	for _, r := range reports {
		if len(r.Rows) != len(footprintBuckets) {
			t.Errorf("%s: %d rows", r.Title, len(r.Rows))
		}
	}
	// CPU favorable medians must fall from the first to the last bucket
	// (LLC cliff); GPU favorable medians must rise (parallelism).
	cpu := reports[1]
	first := parseCell(t, cpu.Rows[0][5])
	last := parseCell(t, cpu.Rows[len(cpu.Rows)-1][5])
	if first <= last {
		t.Errorf("EPYC favorable median should fall with footprint: %.2f -> %.2f", first, last)
	}
	gpu := reports[0]
	gFirst := parseCell(t, gpu.Rows[0][5])
	gLast := parseCell(t, gpu.Rows[len(gpu.Rows)-1][5])
	if gFirst >= gLast {
		t.Errorf("A100 favorable median should rise with footprint: %.2f -> %.2f", gFirst, gLast)
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad cell %q", s)
	}
	return v
}

func TestFig4RowSizeTrend(t *testing.T) {
	o := fastOptions()
	o.SampleN = 0
	o.Devices = []string{"AMD-EPYC-64"}
	r := RunFig4(o)[0]
	// Small-matrix median must grow from nnz/row=5 to nnz/row=500.
	first := parseCell(t, r.Rows[0][2])
	last := parseCell(t, r.Rows[len(r.Rows)-1][2])
	if last <= first {
		t.Errorf("row-size trend wrong: %.2f -> %.2f", first, last)
	}
}

func TestFig5ImbalanceTrend(t *testing.T) {
	o := fastOptions()
	o.SampleN = 0
	o.Devices = []string{"Alveo-U280"}
	r := RunFig5(o)[0]
	first := parseCell(t, r.Rows[0][4]) // large matrices, skew 0
	last := parseCell(t, r.Rows[len(r.Rows)-1][4])
	if first <= last {
		t.Errorf("FPGA skew trend wrong: %.2f -> %.2f (imbalance should hurt)", first, last)
	}
}

func TestFig6RegularityGrid(t *testing.T) {
	o := fastOptions()
	o.SampleN = 0
	o.Devices = []string{"Tesla-A100"}
	r := RunFig6(o)[0]
	if len(r.Rows) == 0 || len(r.Rows) > 9 {
		t.Fatalf("fig6 rows = %d", len(r.Rows))
	}
	// Regular (LL) large matrices beat irregular (SS) large ones on the
	// GPU at the lower quartile — the paper's "boxplot shrinks upwards".
	var ssQ1, llQ1 float64
	for _, row := range r.Rows {
		if row[0] == "S" && row[1] == "S" {
			ssQ1 = parseCell(t, row[6])
		}
		if row[0] == "L" && row[1] == "L" {
			llQ1 = parseCell(t, row[6])
		}
	}
	if llQ1 < ssQ1*1.3 {
		t.Errorf("GPU large: LL q1 %.2f should clearly beat SS q1 %.2f", llQ1, ssQ1)
	}
}

func TestFig7NoUniversalWinner(t *testing.T) {
	o := fastOptions()
	reports := RunFig7(o)
	if len(reports) != 9 {
		t.Fatalf("fig7 reports = %d", len(reports))
	}
	for _, r := range reports {
		if len(r.Rows) < 2 {
			continue // single-format devices can have a universal winner
		}
		total := 0.0
		max := 0.0
		for _, row := range r.Rows {
			w := parsePct(t, row[1])
			total += w
			if w > max {
				max = w
			}
		}
		if total < 99 || total > 101 {
			t.Errorf("%s: wins sum to %.1f%%", r.Title, total)
		}
		if max > 95 {
			t.Errorf("%s: one format wins %.1f%% — paper finds no universal winner", r.Title, max)
		}
	}
}

func TestFig8TrendStableAcrossDatasetSizes(t *testing.T) {
	o := fastOptions()
	o.SampleN = 1000
	r := RunFig8(o)[0]
	if len(r.Rows) != 3*len(footprintBuckets) {
		t.Fatalf("fig8 rows = %d", len(r.Rows))
	}
	// Within every dataset size, the 4-32MB median beats the 512-2048MB
	// median on the CPU — the trend the ablation shows is size-invariant.
	for i := 0; i < 3; i++ {
		smallMed := parseCell(t, r.Rows[i*len(footprintBuckets)][5])
		largeMed := parseCell(t, r.Rows[i*len(footprintBuckets)+3][5])
		if smallMed <= largeMed {
			t.Errorf("dataset %s: footprint trend inverted (%.2f vs %.2f)",
				r.Rows[i*4][0], smallMed, largeMed)
		}
	}
}

func TestFig9RegularityEvolution(t *testing.T) {
	o := fastOptions()
	o.SampleN = 0
	r := RunFig9(o)[0]
	if len(r.Rows) == 0 {
		t.Fatal("fig9 empty")
	}
	if len(r.Notes) < 1 {
		t.Error("fig9 should report the improvement ratios")
	}
	// Every row must have 3 class labels + one median per neigh value.
	for _, row := range r.Rows {
		if len(row) != 3+len(dataset.NeighValues) {
			t.Fatalf("fig9 row width %d", len(row))
		}
	}
}

func TestNativeExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("native kernels are slow in -short mode")
	}
	o := fastOptions()
	o.SampleN = 4
	o.Workers = 2
	reports := RunNative(o)
	if len(reports) != 2 || len(reports[0].Rows) == 0 {
		t.Fatal("native experiment produced nothing")
	}
	if reports[1].ID != "shards" || len(reports[1].Rows) == 0 {
		t.Errorf("shards rider missing: %+v", reports[1])
	}
	for _, row := range reports[0].Rows {
		if parseCell(t, row[4]) <= 0 {
			t.Errorf("format %s: nonpositive median GFLOPS", row[0])
		}
	}
}

func TestShardReport(t *testing.T) {
	r := ShardReport()
	if r.ID != "shards" || len(r.Header) != 6 {
		t.Fatalf("shard report shape: id=%q header=%v", r.ID, r.Header)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("shard report has %d rows, want the pool's one", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("shard row width %d, want %d", len(row), len(r.Header))
		}
	}
	if len(r.Notes) != 1 {
		t.Fatalf("shard report notes missing: %v", r.Notes)
	}
}
