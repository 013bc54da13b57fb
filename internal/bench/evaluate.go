package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
)

// Options configures an experiment run.
type Options struct {
	Dataset dataset.Size
	SampleN int      // subsample the grid to ~N points (0: full grid)
	Seed    int64    // sampling and generator seed
	Devices []string // run on these device.ByName names (nil: the experiment's default; unknown names are skipped, spmv-bench rejects them first)
}

// DefaultOptions runs the full medium (16200-point) dataset on all devices,
// the paper's configuration.
func DefaultOptions() Options {
	return Options{Dataset: dataset.Medium, Seed: 1}
}

// testbeds resolves Devices, or fallback when none are named.
func (o Options) testbeds(fallback ...string) []testbed {
	names := o.Devices
	if len(names) == 0 {
		names = fallback
	}
	var out []testbed
	for _, name := range names {
		if s, ok := device.ByName(name); ok {
			out = append(out, testbed{Spec: s, seed: o.Seed})
		}
	}
	return out
}

func (o Options) points() []core.FeatureVector {
	if o.SampleN > 0 {
		return o.Dataset.Sample(o.SampleN, o.Seed)
	}
	return o.Dataset.Grid()
}

// measurement is one evaluated point: the best feasible format's result
// for a matrix on a testbed (the paper reports best-among-formats).
type measurement struct {
	FV core.FeatureVector
	device.Result
}

// evaluateBest measures the best format at every point on the testbed.
// Points where no format is feasible are skipped, mirroring the paper's
// missing FPGA entries.
func evaluateBest(t testbed, points []core.FeatureVector) []measurement {
	out := make([]measurement, 0, len(points))
	for _, fv := range points {
		if res, ok := t.best(fv); ok {
			out = append(out, measurement{FV: fv, Result: res})
		}
	}
	return out
}

// evaluateAllFormats rates every format at every point: a map from format
// name to its GFLOPS series (over the points where it is feasible), and
// per-point win maps for winners.
func evaluateAllFormats(t testbed, points []core.FeatureVector) (series map[string][]float64, perPoint []map[string]float64) {
	series = make(map[string][]float64, len(t.Formats))
	perPoint = make([]map[string]float64, 0, len(points))
	for _, fv := range points {
		sample := map[string]float64{}
		for i, r := range t.rates(fv) {
			if !r.Feasible {
				continue
			}
			f := t.Formats[i]
			sample[f] = r.GFLOPS
			series[f] = append(series[f], r.GFLOPS)
		}
		perPoint = append(perPoint, sample)
	}
	return series, perPoint
}

// gflopsOf extracts the GFLOPS series from measurements.
func gflopsOf(ms []measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.GFLOPS
	}
	return out
}

// effOf extracts the GFLOPS/W series from measurements.
func effOf(ms []measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.GFLOPSPerWatt()
	}
	return out
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) []*Report
}

// Experiments returns all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Testbed characteristics (Table II)", RunTable2},
		{"table3", "Validation suite features (Table III)", RunTable3},
		{"fig1", "Validation of artificial matrices vs rooflines (Fig 1)", RunFig1},
		{"table4", "Validation MAPE / APE-best per device (Table IV)", RunTable4},
		{"fig2", "Cross-device performance and energy efficiency (Fig 2)", RunFig2},
		{"fig3", "Impact of memory footprint (Fig 3)", RunFig3},
		{"fig4", "Impact of row size (Fig 4)", RunFig4},
		{"fig5", "Impact of imbalance (Fig 5)", RunFig5},
		{"fig6", "Impact of regularity (Fig 6)", RunFig6},
		{"fig7", "Format comparison and win rates (Fig 7)", RunFig7},
		{"fig8", "Dataset-size ablation on AMD-EPYC-24 (Fig 8)", RunFig8},
		{"fig9", "Regularity evolution under fixed features (Fig 9)", RunFig9},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// fmtG formats a GFLOPS value compactly.
func fmtG(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPct formats a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v) }
