package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
)

// Options configures an experiment run.
type Options struct {
	Dataset dataset.Size
	SampleN int      // subsample the grid to ~N points (0: full grid)
	Seed    int64    // sampling and generator seed
	Devices []string // restrict to these testbeds (nil: all nine; unknown names are skipped, spmv-bench rejects them first)
	Workers int      // native engine worker count (0: GOMAXPROCS)
}

// DefaultOptions runs the full medium (16200-point) dataset on all devices,
// the paper's configuration.
func DefaultOptions() Options {
	return Options{Dataset: dataset.Medium, Seed: 1}
}

func (o Options) devices() []device.Spec {
	if len(o.Devices) == 0 {
		return device.Testbeds()
	}
	var out []device.Spec
	for _, name := range o.Devices {
		if s, ok := device.ByName(name); ok {
			out = append(out, s)
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

// Measurement is one evaluated configuration: the best feasible format for
// a matrix on a device (the paper reports best-among-formats).
type Measurement struct {
	FV     core.FeatureVector
	Format string
	device.Result
}

// EvaluateBest computes the best-format measurement for every dataset point
// on the device. Points where no format is feasible are skipped, mirroring
// the paper's missing FPGA entries.
func EvaluateBest(spec device.Spec, points []core.FeatureVector) []Measurement {
	out := make([]Measurement, 0, len(points))
	for _, fv := range points {
		name, res, ok := spec.BestFormat(fv)
		if !ok {
			continue
		}
		out = append(out, Measurement{FV: fv, Format: name, Result: res})
	}
	return out
}

// EvaluateAllFormats computes per-format results for every point: a map
// from format name to the GFLOPS series (aligned with feasible points), and
// per-point win maps for stats.Winners.
func EvaluateAllFormats(spec device.Spec, points []core.FeatureVector) (series map[string][]float64, perPoint []map[string]float64) {
	series = make(map[string][]float64, len(spec.Formats))
	perPoint = make([]map[string]float64, 0, len(points))
	for _, fv := range points {
		sample := map[string]float64{}
		for _, f := range spec.Formats {
			r := spec.Estimate(fv, f)
			if !r.Feasible {
				continue
			}
			sample[f] = r.GFLOPS
			series[f] = append(series[f], r.GFLOPS)
		}
		perPoint = append(perPoint, sample)
	}
	return series, perPoint
}

// gflopsOf extracts the GFLOPS series from measurements.
func gflopsOf(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.GFLOPS
	}
	return out
}

// effOf extracts the GFLOPS/W series from measurements.
func effOf(ms []Measurement) []float64 {
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
		{"native", "Native-engine format comparison on this host", RunNative},
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

// sortedKeys returns map keys in sorted order for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
