package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
)

// sweepDevices are Figs 3-6's default devices: a GPU, a CPU and the FPGA.
var sweepDevices = []string{"Tesla-A100", "AMD-EPYC-64", "Alveo-U280"}

// splitMB is the small/large matrix split used by Figs 4-6 for all devices.
const splitMB = 256.0

// footprintBuckets are the Fig 3 x-axis groups.
var footprintBuckets = [][2]float64{{4, 32}, {32, 128}, {128, 512}, {512, 2048}}

func bucketLabel(b [2]float64) string { return fmt.Sprintf("%g-%gMB", b[0], b[1]) }

// favorable reports whether the point has intuitively favorable values for
// the three features other than footprint (regular, balanced, long rows) —
// the dark boxplots of Fig 3.
func favorable(fv core.FeatureVector) bool {
	return fv.SkewCoeff == 0 && fv.AvgNNZPerRow >= 50 &&
		fv.CrossRowSim >= 0.5 && fv.AvgNumNeigh >= 0.95
}

// RunFig2 reproduces Fig. 2: per-device distributions of best-format
// performance (2a) and energy efficiency (2b) over the artificial dataset.
func RunFig2(o Options) []*Report {
	perf := &Report{ID: "fig2", Title: "Performance per device (Fig 2a, GFLOPS)",
		Header: []string{"device", "n", "min", "q1", "median", "q3", "max", "boxplot [0..max]"}}
	eff := &Report{ID: "fig2", Title: "Energy efficiency per device (Fig 2b, GFLOPS/W)",
		Header: []string{"device", "n", "min", "q1", "median", "q3", "max"}}
	points := o.points()
	maxPerf := 0.0
	type row struct {
		name   string
		ps, es summary
	}
	var rows []row
	for _, tb := range o.testbeds(device.Names()...) {
		ms := evaluateBest(tb, points)
		ps := summarize(gflopsOf(ms))
		es := summarize(effOf(ms))
		if ps.Max > maxPerf {
			maxPerf = ps.Max
		}
		rows = append(rows, row{tb.Name, ps, es})
	}
	for _, rw := range rows {
		perf.AddRow(rw.name, fmt.Sprintf("%d", rw.ps.N),
			fmtG(rw.ps.Min), fmtG(rw.ps.Q1), fmtG(rw.ps.Median), fmtG(rw.ps.Q3), fmtG(rw.ps.Max),
			boxplot(rw.ps, 0, maxPerf, 32))
		eff.AddRow(rw.name, fmt.Sprintf("%d", rw.es.N),
			fmt.Sprintf("%.4f", rw.es.Min), fmt.Sprintf("%.4f", rw.es.Q1),
			fmt.Sprintf("%.4f", rw.es.Median), fmt.Sprintf("%.4f", rw.es.Q3),
			fmt.Sprintf("%.4f", rw.es.Max))
	}
	perf.AddNote("paper takeaway 2: GPUs keep the performance lead; large CPUs are a solid alternative")
	eff.AddNote("paper takeaway 3: Alveo-U280 most energy-efficient, then high-performance GPUs and ARM")
	return []*Report{perf, eff}
}

// RunFig3 reproduces Fig. 3: impact of memory footprint, with all-matrices
// (light) and favorable-featured (dark) distributions per device.
func RunFig3(o Options) []*Report {
	points := o.points()
	var reports []*Report
	for _, tb := range o.testbeds(sweepDevices...) {
		r := &Report{ID: "fig3", Title: "Footprint impact on " + tb.Name,
			Header: []string{"footprint", "n(all)", "median(all)", "q3(all)", "n(fav)", "median(fav)", "max(fav)"}}
		ms := evaluateBest(tb, points)
		for _, b := range footprintBuckets {
			var all, fav []float64
			for _, m := range ms {
				if m.FV.MemFootprintMB < b[0] || m.FV.MemFootprintMB >= b[1] {
					continue
				}
				all = append(all, m.GFLOPS)
				if favorable(m.FV) {
					fav = append(fav, m.GFLOPS)
				}
			}
			sa, sf := summarize(all), summarize(fav)
			r.AddRow(bucketLabel(b), fmt.Sprintf("%d", sa.N), fmtG(sa.Median), fmtG(sa.Q3),
				fmt.Sprintf("%d", sf.N), fmtG(sf.Median), fmtG(sf.Max))
		}
		addCliffNote(r, ms, tb.Name)
		if tb.measured() && len(ms) < len(points) {
			r.AddNote("%s: %d of %d points infeasible (over the %d MB gate, or no format ran)", tb.Name, len(points)-len(ms), len(points), hostGateMB)
		}
		reports = append(reports, r)
	}
	return reports
}

func addCliffNote(r *Report, ms []measurement, dev string) {
	var smallFav, largeFav []float64
	for _, m := range ms {
		if !favorable(m.FV) {
			continue
		}
		if m.FV.MemFootprintMB < 128 {
			smallFav = append(smallFav, m.GFLOPS)
		} else if m.FV.MemFootprintMB >= 512 {
			largeFav = append(largeFav, m.GFLOPS)
		}
	}
	s, l := median(smallFav), median(largeFav)
	if s > 0 && l > 0 {
		if s > l {
			r.AddNote("%s: small/large favorable median ratio %.2fx", dev, s/l)
		} else {
			r.AddNote("%s: large/small favorable median ratio %.2fx", dev, l/s)
		}
	}
}

// RunFig4 reproduces Fig. 4: impact of row size, split at 256 MB.
func RunFig4(o Options) []*Report {
	return featureSweep(o, "fig4", "Row-size impact", func(fv core.FeatureVector) (string, bool) {
		return fmt.Sprintf("nnz/row=%g", fv.AvgNNZPerRow), true
	}, dataset.AvgNNZValues, "nnz/row=%g")
}

// RunFig5 reproduces Fig. 5: impact of imbalance (skew), split at 256 MB.
func RunFig5(o Options) []*Report {
	return featureSweep(o, "fig5", "Imbalance impact", func(fv core.FeatureVector) (string, bool) {
		return fmt.Sprintf("skew=%g", fv.SkewCoeff), true
	}, dataset.SkewValues, "skew=%g")
}

// featureSweep renders per-device small/large summaries for each value of
// one swept feature.
func featureSweep(o Options, id, title string, keyOf func(core.FeatureVector) (string, bool), values []float64, keyFmt string) []*Report {
	points := o.points()
	var reports []*Report
	for _, tb := range o.testbeds(sweepDevices...) {
		r := &Report{ID: id, Title: title + " on " + tb.Name,
			Header: []string{"value", "n(small)", "med(small)", "n(large)", "med(large)"}}
		ms := evaluateBest(tb, points)
		small := map[string][]float64{}
		large := map[string][]float64{}
		for _, m := range ms {
			key, use := keyOf(m.FV)
			if !use {
				continue
			}
			if m.FV.MemFootprintMB < splitMB {
				small[key] = append(small[key], m.GFLOPS)
			} else {
				large[key] = append(large[key], m.GFLOPS)
			}
		}
		for _, v := range values {
			key := fmt.Sprintf(keyFmt, v)
			ss, ls := summarize(small[key]), summarize(large[key])
			r.AddRow(key, fmt.Sprintf("%d", ss.N), fmtG(ss.Median),
				fmt.Sprintf("%d", ls.N), fmtG(ls.Median))
		}
		addSweepGapNote(r, small, large, values, keyFmt, tb.Name)
		reports = append(reports, r)
	}
	return reports
}

func addSweepGapNote(r *Report, small, large map[string][]float64, values []float64, keyFmt, dev string) {
	first := fmt.Sprintf(keyFmt, values[0])
	last := fmt.Sprintf(keyFmt, values[len(values)-1])
	for _, side := range []struct {
		name string
		m    map[string][]float64
	}{{"small", small}, {"large", large}} {
		a, b := median(side.m[first]), median(side.m[last])
		if a > 0 && b > 0 {
			r.AddNote("%s %s: median %s %s -> %s %s (%.2fx)",
				dev, side.name, first, fmtG(a), last, fmtG(b), b/a)
		}
	}
}

// RunFig6 reproduces Fig. 6: impact of regularity as an SML x SML grid of
// the two locality subfeatures, split small/large.
func RunFig6(o Options) []*Report {
	points := o.points()
	var reports []*Report
	for _, tb := range o.testbeds(sweepDevices...) {
		r := &Report{ID: "fig6", Title: "Regularity impact on " + tb.Name,
			Header: []string{"neigh class", "sim class", "n(small)", "q1(small)", "med(small)", "n(large)", "q1(large)", "med(large)"}}
		ms := evaluateBest(tb, points)
		type cell struct{ small, large []float64 }
		grid := map[string]*cell{}
		for _, m := range ms {
			key := m.FV.RegularityLabel()
			c := grid[key]
			if c == nil {
				c = &cell{}
				grid[key] = c
			}
			if m.FV.MemFootprintMB < splitMB {
				c.small = append(c.small, m.GFLOPS)
			} else {
				c.large = append(c.large, m.GFLOPS)
			}
		}
		for _, nc := range []string{"S", "M", "L"} {
			for _, sc := range []string{"S", "M", "L"} {
				c := grid[nc+sc]
				if c == nil {
					continue
				}
				ss, ls := summarize(c.small), summarize(c.large)
				r.AddRow(nc, sc,
					fmt.Sprintf("%d", ss.N), fmtG(ss.Q1), fmtG(ss.Median),
					fmt.Sprintf("%d", ls.N), fmtG(ls.Q1), fmtG(ls.Median))
			}
		}
		// The paper: "the more regular the matrix, the more robust the
		// performance (boxplot shrinks upwards)" — a lower-quartile effect;
		// band-resident configurations keep the medians close.
		if ss, ll := grid["SS"], grid["LL"]; ss != nil && ll != nil {
			a := summarize(ss.large)
			b := summarize(ll.large)
			if a.Q1 > 0 {
				r.AddNote("%s large: regular(LL)/irregular(SS) q1 ratio %.2fx", tb.Name, b.Q1/a.Q1)
			}
		}
		reports = append(reports, r)
	}
	return reports
}

// RunFig7 reproduces Fig. 7: per-format performance distributions and the
// share of matrices each format wins, per device.
func RunFig7(o Options) []*Report {
	points := o.points()
	var reports []*Report
	for _, tb := range o.testbeds(device.Names()...) {
		r := &Report{ID: "fig7", Title: "Format comparison on " + tb.Name,
			Header: []string{"format", "wins", "n", "q1", "median", "q3", "max"}}
		series, perPoint := evaluateAllFormats(tb, points)
		wins := winners(perPoint)
		for _, f := range tb.Formats {
			s := summarize(series[f])
			r.AddRow(f, fmtPct(wins[f]), fmt.Sprintf("%d", s.N),
				fmtG(s.Q1), fmtG(s.Median), fmtG(s.Q3), fmtG(s.Max))
		}
		r.AddNote("paper takeaway 6: no format wins everywhere")
		reports = append(reports, r)
	}
	return reports
}

// RunFig8 reproduces Fig. 8: the dataset-size ablation on AMD-EPYC-24 —
// the small (~3K), medium (16200) and large (27000) grids must show the
// same footprint trend.
func RunFig8(o Options) []*Report {
	spec, _ := device.ByName("AMD-EPYC-24") // whatever Devices says
	tb := testbed{Spec: spec}
	r := &Report{ID: "fig8", Title: "Dataset-size ablation on AMD-EPYC-24",
		Header: []string{"dataset", "points", "footprint", "n", "q1", "median", "q3"}}
	for _, size := range []dataset.Size{dataset.Small, dataset.Medium, dataset.Large} {
		opts := o
		opts.Dataset = size
		points := opts.points()
		ms := evaluateBest(tb, points)
		for _, b := range footprintBuckets {
			var vals []float64
			for _, m := range ms {
				if m.FV.MemFootprintMB >= b[0] && m.FV.MemFootprintMB < b[1] {
					vals = append(vals, m.GFLOPS)
				}
			}
			s := summarize(vals)
			r.AddRow(size.String(), fmt.Sprintf("%d", len(points)), bucketLabel(b),
				fmt.Sprintf("%d", s.N), fmtG(s.Q1), fmtG(s.Median), fmtG(s.Q3))
		}
	}
	r.AddNote("paper: growing the dataset beyond the medium size does not change the trend")
	return []*Report{r}
}

// RunFig9 reproduces Fig. 9: on AMD-EPYC-24, performance as the
// avg-num-neighbors subfeature grows, for fixed S/M/L classes of the other
// three features.
func RunFig9(o Options) []*Report {
	spec, _ := device.ByName("AMD-EPYC-24") // whatever Devices says
	tb := testbed{Spec: spec}
	points := o.points()
	ms := evaluateBest(tb, points)
	r := &Report{ID: "fig9", Title: "Regularity evolution on AMD-EPYC-24 (median GFLOPS per neigh value)",
		Header: append([]string{"footprint", "rows", "skew"}, neighHeaders()...)}

	type comboKey struct{ fp, avg, skew string }
	groups := map[comboKey]map[float64][]float64{}
	for _, m := range ms {
		key := comboKey{fpClass(m.FV), avgClass(m.FV), skewClass(m.FV)}
		if groups[key] == nil {
			groups[key] = map[float64][]float64{}
		}
		groups[key][m.FV.AvgNumNeigh] = append(groups[key][m.FV.AvgNumNeigh], m.GFLOPS)
	}
	classes := []string{"S", "M", "L"}
	bestGain, worstPeak := 0.0, 1e300
	peak := 0.0
	for _, g := range groups {
		for _, vals := range g {
			if m := median(vals); m > peak {
				peak = m
			}
		}
	}
	for _, fp := range classes {
		for _, avg := range classes {
			for _, sk := range classes {
				g := groups[comboKey{fp, avg, sk}]
				if g == nil {
					continue
				}
				row := []string{fp, avg, sk}
				var first, last float64
				for i, nv := range dataset.NeighValues {
					med := median(g[nv])
					row = append(row, fmtG(med))
					if i == 0 {
						first = med
					}
					last = med
				}
				r.AddRow(row...)
				goodFixed := fp != "L" && avg != "S" && sk == "S"
				if goodFixed && first > 0 && last/first > bestGain {
					bestGain = last / first
				}
				badFixed := fp == "L" && avg == "S" && sk == "L"
				if badFixed {
					var max float64
					for _, nv := range dataset.NeighValues {
						if m := median(g[nv]); m > max {
							max = m
						}
					}
					if max < worstPeak {
						worstPeak = max
					}
				}
			}
		}
	}
	if bestGain > 0 {
		r.AddNote("good fixed features: growing neighbors improves median by up to %.2fx (paper: ~1.6x)", bestGain)
	}
	if worstPeak < 1e300 && peak > 0 {
		r.AddNote("bad fixed features: best median reaches only %.0f%% of overall peak (paper: <=40%%)", worstPeak/peak*100)
	}
	return []*Report{r}
}

func neighHeaders() []string {
	var out []string
	for _, v := range dataset.NeighValues {
		out = append(out, fmt.Sprintf("neigh=%g", v))
	}
	return out
}

// Feature-class helpers for Fig 9, splitting each fixed feature's grid
// values into three ranges.
func fpClass(fv core.FeatureVector) string {
	switch {
	case fv.MemFootprintMB < 32:
		return "S"
	case fv.MemFootprintMB < 512:
		return "M"
	default:
		return "L"
	}
}

func avgClass(fv core.FeatureVector) string {
	switch {
	case fv.AvgNNZPerRow <= 10:
		return "S"
	case fv.AvgNNZPerRow <= 50:
		return "M"
	default:
		return "L"
	}
}

func skewClass(fv core.FeatureVector) string {
	switch {
	case fv.SkewCoeff == 0:
		return "S"
	case fv.SkewCoeff <= 100:
		return "M"
	default:
		return "L"
	}
}
