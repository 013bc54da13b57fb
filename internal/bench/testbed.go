package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// hostGateMB is the largest requested footprint the host testbed
// generates. A point above it is infeasible and never generated, the way
// the FPGA's capacity failures show in Fig 1; no point is rescaled to fit.
// ELL's 2.5x slab of short rows sets it: with every format run in one
// process, a 223 MB point peaked at 1.5 GB of resident memory (measured
// while HYB still staged a COO spill of twice the CSR bytes), under a
// fifth of an 8 GB machine, and Table I's middle-class ceiling (512 MB)
// would double that. It bounds a point, not a run over many points
// (docs/BENCHMARKS.md).
const hostGateMB = 256

// testbed is a device a figure runs on: its Spec (name, formats, roof and
// Table II row) and its rate for a (feature point, format) pair. The nine
// Table II machines rate by their Spec's model; "host", this machine, by
// measurement.
type testbed struct {
	device.Spec
	seed int64 // generator seed of a measured point
}

// measured reports whether the testbed's rates are timed kernels.
func (t testbed) measured() bool { return t.Name == "host" }

// rates returns the testbed's result for each of its formats at fv, in
// Formats order. A measured point is generated once and lives only for
// the call; each format is built, checked against the CSR reference and
// timed at k = 1 by device.NativeEngine. A gated point, a refused
// build or a wrong product is infeasible with its error as the Reason,
// and Watts stays 0: the host exposes no power counter.
func (t testbed) rates(fv core.FeatureVector) []device.Result {
	out := make([]device.Result, len(t.Formats))
	if !t.measured() {
		for i, f := range t.Formats {
			out[i] = t.Estimate(fv, f)
		}
		return out
	}
	m, err := generate(fv, t.seed)
	var engine device.NativeEngine
	for i, f := range t.Formats {
		if err != nil {
			out[i].Reason = err.Error()
			continue
		}
		b, _ := formats.Lookup(f) // the host's Formats are the registry's names
		res := engine.Run(m, b, 1)
		out[i] = device.Result{GFLOPS: res.GFLOPS, Feasible: res.Err == nil}
		if res.Err != nil {
			out[i].Reason = res.Err.Error()
		}
	}
	return out
}

// generate builds the matrix at fv, or refuses a point over the gate.
func generate(fv core.FeatureVector, seed int64) (*matrix.CSR, error) {
	if fv.MemFootprintMB > hostGateMB {
		return nil, fmt.Errorf("bench: %.0f MB exceeds the host's %d MB gate", fv.MemFootprintMB, hostGateMB)
	}
	return gen.Generate(gen.FromFeatures(fv, seed))
}

// best returns the testbed's best feasible result at fv, as the paper
// reports the "best result achieved among tested formats"; ok is false
// when no format is feasible.
func (t testbed) best(fv core.FeatureVector) (best device.Result, ok bool) {
	for _, r := range t.rates(fv) {
		if r.Feasible && (!ok || r.GFLOPS > best.GFLOPS) {
			best, ok = r, true
		}
	}
	return best, ok
}
