package device

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// NativeResult reports a measured (not modeled) SpMV run on the host CPU.
type NativeResult struct {
	Format     string
	Workers    int
	Iterations int
	Seconds    float64 // total wall time of all iterations
	GFLOPS     float64
	Err        error // no rate: the build was refused (formats.ErrBuild) or the first product was wrong
}

// NativeEngine runs real format kernels on the host machine, the
// measurement path the paper used on its CPU testbeds (128 iterations,
// average performance).
type NativeEngine struct {
	Workers    int // 0: GOMAXPROCS
	Iterations int // 0: 16
	MinSeconds float64
}

// EffectiveWorkers resolves the worker count the engine's kernels can
// actually use: the configured count, defaulted to GOMAXPROCS and capped
// by the execution engine. Per-matrix grain shrinking may lower it further
// for small inputs.
func (e NativeEngine) EffectiveWorkers() int {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mx := exec.MaxWorkers(); workers > mx {
		workers = mx
	}
	return workers
}

// Run measures one format on one matrix. The first product is verified
// against the CSR reference before timing, to the dot product's forward
// bound (any accumulation order fits it); a kernel that fails is not timed.
func (e NativeEngine) Run(m *matrix.CSR, builder formats.Builder) NativeResult {
	workers := e.EffectiveWorkers()
	iters := e.Iterations
	if iters <= 0 {
		iters = 16
	}
	res := NativeResult{Format: builder.Name, Workers: workers, Iterations: iters}
	f, err := builder.Build(m)
	if err != nil {
		res.Err = err
		return res
	}
	x := matrix.RandomVector(m.Cols, 12345)
	y := make([]float64, m.Rows)

	exec.Prestart()               // timed iterations must not pay pool startup
	f.SpMVParallel(x, y, workers) // warm-up, page-in, plan-cache fill
	want := make([]float64, m.Rows)
	m.SpMV(x, want)
	if i, ok := m.WithinDotBound(x, 1, y, want); !ok {
		res.Err = fmt.Errorf("device: %s: wrong product, y[%d] = %v against the CSR reference's %v", builder.Name, i, y[i], want[i])
		return res
	}

	start := time.Now()
	done := 0
	for done < iters || (e.MinSeconds > 0 && time.Since(start).Seconds() < e.MinSeconds) {
		f.SpMVParallel(x, y, workers)
		done++
	}
	res.Iterations = done
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.GFLOPS = 2 * float64(m.NNZ()) * float64(done) / res.Seconds / 1e9
	}
	return res
}

// RunAll measures every format in the registry on the matrix, returning
// results in registry order (including build failures).
func (e NativeEngine) RunAll(m *matrix.CSR) []NativeResult {
	var out []NativeResult
	for _, b := range formats.Registry() {
		out = append(out, e.Run(m, b))
	}
	return out
}

// HostSpec approximates the current machine as a Spec so modeled and native
// results can sit on the same axes. Bandwidths are rough laptop/server
// defaults scaled by the usable core count — a single core drives only a
// slice of the chip's aggregate bandwidth (one load/store unit, a few
// outstanding misses), so a capped-GOMAXPROCS host must not be modeled as
// compute-bound against full-chip bandwidth or every format's memory cost
// collapses out of the ranking. The native engine measures, it does not
// model.
func HostSpec() Spec {
	units := runtime.GOMAXPROCS(0)
	memBW := math.Min(20, 12*float64(units))
	llcBW := math.Min(200, 50*float64(units))
	// The modeled SIMD width is whatever the dispatch layer actually
	// detected and enabled — a scalar-forced host (SPMV_SIMD_LEVEL=scalar) is modeled
	// at one lane, not at a peak its kernels cannot reach.
	lanes := simd.Width()
	if lanes < 1 {
		lanes = 1
	}
	return Spec{
		Name:      "host",
		Class:     CPU,
		Units:     units,
		LanesPerU: lanes,
		FreqGHz:   2.5,
		LLCBytes:  32 << 20,
		MemBWGBs:  memBW, LLCBWGBs: llcBW,
		TDPWatts: 65, IdleWatts: 15,
		Formats: formatNames(),
	}
}

func formatNames() []string {
	var names []string
	for _, b := range formats.Registry() {
		names = append(names, b.Name)
	}
	return names
}

// MeasuredTraits builds the format for the matrix and returns its true
// structural traits plus the measured feature vector, grounding the model
// engine's analytic estimates.
func MeasuredTraits(m *matrix.CSR, formatName string) (formats.Traits, core.FeatureVector, error) {
	b, ok := formats.Lookup(formatName)
	if !ok {
		return formats.Traits{}, core.FeatureVector{}, &UnknownFormatError{formatName}
	}
	f, err := b.Build(m)
	if err != nil {
		return formats.Traits{}, core.FeatureVector{}, err
	}
	return f.Traits(), core.Extract(m), nil
}

// UnknownFormatError reports a format name absent from the registry.
type UnknownFormatError struct{ Name string }

// Error implements error.
func (e *UnknownFormatError) Error() string { return "device: unknown format " + e.Name }
