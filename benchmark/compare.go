package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// e2eMetric is one end-to-end metric's contract: its unit, which way is
// better, and the share of the baseline's median by which it may worsen
// before a change counts as a regression. BENCHMARK.json carries the same
// table for the driver; TestBenchmarkJSONMatchesTables keeps them equal.
type e2eMetric struct {
	Name   string
	Unit   string
	Higher bool    // true: a larger value is better
	Bound  float64 // relative worsening tolerated
	// AbsFloor is an absolute worsening that must also be exceeded before
	// the metric regresses (setup_s: a 20 % rise of a 2 ms set-up is not a
	// finding).
	AbsFloor float64
}

// endToEnd lists the metrics every workload reports from the untraced
// run and is judged by. fail_ratio is judged separately (any rise above
// failRatioRise). The bounds are the contract's maximum: on the 2-vCPU
// guest this was written on the host's speed drifts by a quarter over tens
// of minutes; expressing every metric at a nominal host speed (loop.go)
// brought ten runs' spread to 3-8 % and the drift between sets to at most
// 11 % (README, "How steady it is"), and the bound keeps a margin over that
// so that unchanged code is not rejected.
var endToEnd = []e2eMetric{
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "gflops", Unit: "GFLOP/s", Higher: true, Bound: 0.25},
	{Name: "lat_ms_mean", Unit: "ms", Bound: 0.25},
	{Name: "lat_ms_p95", Unit: "ms", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Bound: 0.25, AbsFloor: 0.050},
}

const failRatioRise = 0.001

// verdict of one (metric, workload) comparison.
const (
	pass       = "PASS"
	regressed  = "REGRESSED"
	unresolved = "UNRESOLVED"
)

// compareRow is one printed line of -compare.
type compareRow struct {
	Workload, Metric string
	Base, Change     float64 // medians over each side's runs
	Worse            float64 // relative worsening of Change vs Base (negative: better)
	Spread           float64 // the wider of the two sides' IQR/median
	Verdict, Note    string
}

// worsening returns how much worse change is than base as a share of
// base, signed so that positive always means worse.
func worsening(m e2eMetric, base, change float64) float64 {
	if base == 0 {
		return 0
	}
	d := (change - base) / base
	if m.Higher {
		return -d
	}
	return d
}

// judge applies the benchmark's rule to one metric of one workload. Where
// either side's run-to-run spread is wider than the bound the pair cannot
// resolve a difference of that size: it is UNRESOLVED unless every run of
// the change reads better than every run of the base.
func judge(m e2eMetric, base, change []float64) compareRow {
	r := compareRow{Metric: m.Name, Base: median(base), Change: median(change)}
	r.Worse = worsening(m, r.Base, r.Change)
	r.Spread = max(spreadShare(base), spreadShare(change))
	switch {
	case len(base) == 0 || len(change) == 0:
		r.Verdict, r.Note = unresolved, "metric missing on one side"
	case math.Abs(r.Change-r.Base) <= m.AbsFloor:
		r.Verdict = pass
	case r.Spread > m.Bound && !allBetter(m, base, change):
		r.Verdict, r.Note = unresolved, "run-to-run spread wider than the bound"
	case r.Worse > m.Bound:
		r.Verdict = regressed
	default:
		r.Verdict = pass
	}
	return r
}

// allBetter reports whether every change run beats every base run.
func allBetter(m e2eMetric, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if worsening(m, b, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareReports judges every (end-to-end metric, workload) pair of two
// reports. Workloads whose runs chose different storage formats are
// flagged instead of compared: the numbers describe different kernels.
func compareReports(base, change *report) []compareRow {
	var rows []compareRow
	for _, bw := range base.Workloads {
		cw := change.workload(bw.Name)
		if cw == nil {
			rows = append(rows, compareRow{Workload: bw.Name, Metric: "*", Verdict: unresolved, Note: "workload missing from the second report"})
			continue
		}
		if bf, cf := bw.formats(), cw.formats(); bf != cf {
			rows = append(rows, compareRow{Workload: bw.Name, Metric: "*", Verdict: unresolved,
				Note: fmt.Sprintf("chosen format differs (%s vs %s): flagged, not compared", bf, cf)})
			continue
		}
		for _, m := range endToEnd {
			r := judge(m, bw.values(m.Name), cw.values(m.Name))
			r.Workload = bw.Name
			rows = append(rows, r)
		}
		fr := compareRow{Workload: bw.Name, Metric: "fail_ratio",
			Base: median(bw.values("fail_ratio")), Change: median(cw.values("fail_ratio")), Verdict: pass}
		if fr.Change-fr.Base > failRatioRise {
			fr.Verdict = regressed
		}
		rows = append(rows, fr)
	}
	return rows
}

// printCompare writes the rows and returns how many regressed.
func printCompare(w io.Writer, rows []compareRow) (regressions int) {
	fmt.Fprintf(w, "%-13s %-11s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "change", "worse", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-11s %12.4f %12.4f %7.1f%% %7.1f%%  %s", r.Workload, r.Metric, r.Base, r.Change, 100*r.Worse, 100*r.Spread, r.Verdict)
		if r.Note != "" {
			fmt.Fprintf(w, " (%s)", r.Note)
		}
		fmt.Fprintln(w)
		if r.Verdict == regressed {
			regressions++
		}
	}
	return regressions
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare is the -compare entry point; it exits non-zero through its
// error when any pair regressed.
func runCompare(w io.Writer, basePath, changePath string) error {
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	change, err := readReport(changePath)
	if err != nil {
		return err
	}
	if base.Host.Clients != change.Host.Clients {
		fmt.Fprintf(w, "note: client counts differ (%d vs %d); results are only comparable at equal C\n", base.Host.Clients, change.Host.Clients)
	}
	if n := printCompare(w, compareReports(base, change)); n > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", n)
	}
	return nil
}
