package bench

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/device"
)

// RunTable2 renders the encoded testbed table (Table II).
func RunTable2(o Options) []*Report {
	r := &Report{ID: "table2", Title: "Testbeds (Table II)",
		Header: []string{"device", "class", "units", "freq GHz", "LLC MB", "mem BW GB/s", "LLC BW GB/s", "TDP W", "formats"}}
	for _, s := range o.testbeds(device.Names()...) {
		r.AddRow(s.Name, s.Class.String(),
			fmt.Sprintf("%d", s.Units), fmt.Sprintf("%.2f", s.FreqGHz),
			fmt.Sprintf("%d", s.LLCBytes>>20), fmt.Sprintf("%.1f", s.MemBWGBs),
			fmt.Sprintf("%.0f", s.LLCBWGBs), fmt.Sprintf("%.0f", s.TDPWatts),
			fmt.Sprintf("%v", s.Formats))
	}
	return []*Report{r}
}

// RunTable3 renders the validation-suite features (Table III).
func RunTable3(Options) []*Report {
	r := &Report{ID: "table3", Title: "Validation suite (Table III)",
		Header: []string{"id", "matrix", "f1 MB", "f2 nnz/row", "f3 skew", "f4"}}
	for _, v := range dataset.TableIII() {
		r.AddRow(fmt.Sprintf("%d", v.ID), v.Name,
			fmt.Sprintf("%.2f", v.FootprintMB), fmt.Sprintf("%.2f", v.AvgNNZ),
			fmt.Sprintf("%.2f", v.Skew), v.Regularity)
	}
	return []*Report{r}
}

// validationPerf evaluates one device over the validation suite: for each
// matrix, the best-format performance of the matrix itself and of its
// friends.
type validationPerf struct {
	matrix  dataset.ValidationMatrix
	self    float64
	friends []float64
	roofMem float64
	roofLLC float64
	ok      bool
}

func runValidation(tb testbed) []validationPerf {
	suite := dataset.TableIII()
	out := make([]validationPerf, 0, len(suite))
	for _, v := range suite {
		fv := v.Features()
		vp := validationPerf{matrix: v}
		if res, ok := tb.best(fv); ok {
			vp.self = res.GFLOPS
			vp.ok = true
		}
		for _, ffv := range v.Friends(0, tb.seed) {
			if fr, fok := tb.best(ffv); fok {
				vp.friends = append(vp.friends, fr.GFLOPS)
			}
		}
		roof := tb.Roof()
		vp.roofMem = roof.MemoryBound(fv)
		vp.roofLLC = roof.LLCBound(fv)
		out = append(out, vp)
	}
	return out
}

// RunFig1 reproduces Fig. 1: per device, each validation matrix against the
// performance range of its artificial friends and the roofline bounds.
// Matrices infeasible on a device (FPGA capacity) are reported as such,
// echoing the 10 matrices that failed on the paper's FPGA.
func RunFig1(o Options) []*Report {
	var reports []*Report
	for _, tb := range o.testbeds(device.Names()...) {
		r := &Report{ID: "fig1", Title: "Validation vs friends on " + tb.Name,
			Header: []string{"matrix", "GFLOPS", "friends med", "friends range", "roof mem", "roof LLC", "boxplot [lo..hi]"}}
		failed := 0
		perfs := runValidation(tb)
		lo, hi := plotRange(perfs)
		for _, vp := range perfs {
			if !vp.ok {
				failed++
				r.AddRow(vp.matrix.Name, "FAILED", "-", "-",
					fmtG(vp.roofMem), fmtG(vp.roofLLC), "")
				continue
			}
			s := summarize(vp.friends)
			r.AddRow(vp.matrix.Name, fmtG(vp.self), fmtG(s.Median),
				fmt.Sprintf("[%s, %s]", fmtG(s.Min), fmtG(s.Max)),
				fmtG(vp.roofMem), fmtG(vp.roofLLC),
				boxplot(s, lo, hi, 32))
		}
		if failed > 0 {
			r.AddNote("%d matrices failed to run on %s (capacity/padding limits)", failed, tb.Name)
		}
		reports = append(reports, r)
	}
	return reports
}

func plotRange(perfs []validationPerf) (lo, hi float64) {
	lo, hi = 1e300, 0
	for _, vp := range perfs {
		for _, f := range vp.friends {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	if hi <= lo {
		return 0, 1
	}
	return lo, hi
}

// RunTable4 reproduces Table IV: per device, the MAPE between each
// validation matrix and its friends' median, and the APE against its best
// friend, averaged over the suite.
func RunTable4(o Options) []*Report {
	r := &Report{ID: "table4", Title: "Validation error (Table IV)",
		Header: []string{"device", "MAPE", "APE-best", "matrices"}}
	var allMAPE, allBest []float64
	for _, tb := range o.testbeds(device.Names()...) {
		var mapes, bests []float64
		for _, vp := range runValidation(tb) {
			if !vp.ok || len(vp.friends) == 0 {
				continue
			}
			med := summarize(vp.friends).Median
			mapes = append(mapes, ape(vp.self, med))
			bests = append(bests, bestAPE(vp.self, vp.friends))
		}
		m := mean(mapes)
		b := mean(bests)
		allMAPE = append(allMAPE, m)
		allBest = append(allBest, b)
		r.AddRow(tb.Name, fmtPct(m), fmtPct(b), fmt.Sprintf("%d", len(mapes)))
	}
	r.AddRow("Average", fmtPct(mean(allMAPE)), fmtPct(mean(allBest)), "")
	r.AddNote("paper: average MAPE 17.51%%, average APE-best 8.58%%")
	return []*Report{r}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
