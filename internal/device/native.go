package device

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

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
	Bytes      int64          // the built format's footprint
	Traits     formats.Traits // and its structural costs
	Err        error          // no rate: the build was refused (formats.ErrBuild) or the first product was wrong
}

// NativeEngine runs real format kernels on the host machine, the
// measurement path the paper used on its CPU testbeds (128 iterations,
// average performance).
type NativeEngine struct {
	Workers    int // 0: GOMAXPROCS
	Iterations int // 0: 16
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
	return min(workers, exec.MaxWorkers())
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
	res.Bytes, res.Traits = f.Bytes(), f.Traits()
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
	for i := 0; i < iters; i++ {
		f.SpMVParallel(x, y, workers)
	}
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.GFLOPS = 2 * float64(m.NNZ()) * float64(iters) / res.Seconds / 1e9
	}
	return res
}

// HostSpec models the current machine as a Spec so modeled and native
// results can sit on the same axes: Host at the usable core count and the
// SIMD width the dispatch layer detected and enabled, under the in-core
// table formats.MeasureClasses reads — once per process and dispatch tier,
// at the first call (about a millisecond), never again.
func HostSpec() Spec {
	hostMu.Lock()
	defer hostMu.Unlock()
	ns, ok := hostNs[simd.Level()]
	if !ok {
		ns = formats.MeasureClasses()
		hostNs[simd.Level()] = ns
	}
	return Host(runtime.GOMAXPROCS(0), simd.Width(), ns)
}

var hostMu sync.Mutex
var hostNs = map[string][formats.NumClasses]float64{} // by simd.Level(), under hostMu

// Host is the host model for a machine of units cores and lanes float64
// SIMD lanes whose kernels pay classNs nanoseconds per stored entry,
// overlapped with the memory term by a fitted 0.65 (docs/BENCHMARKS.md has
// the fit and its residuals). The memory half is still rough laptop/server
// defaults scaled by the core count: a single core drives only a slice of
// the chip's aggregate bandwidth, so a capped-GOMAXPROCS host must not be
// modeled against full-chip bandwidth.
func Host(units, lanes int, classNs [formats.NumClasses]float64) Spec {
	s := Spec{
		Name:      "host",
		Class:     CPU,
		Units:     units,
		LanesPerU: lanes,
		LLCBytes:  32 << 20,
		MemBWGBs:  math.Min(20, 12*float64(units)),
		LLCBWGBs:  math.Min(200, 50*float64(units)),
		TDPWatts:  65, IdleWatts: 15,
		Formats:      formatNames(),
		Overlap:      0.65,
		ClaimsChunks: true,
	}
	for c := formats.ClassNone + 1; c < formats.NumClasses; c++ {
		s.ClassRate[c] = 1 / classNs[c]
	}
	return s
}

func formatNames() []string {
	var names []string
	for _, b := range formats.Registry() {
		names = append(names, b.Name)
	}
	return names
}
