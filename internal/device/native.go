package device

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/measure"
	"repro/internal/simd"
)

// NativeResult reports a measured (not modeled) k-wide product on the host
// CPU.
type NativeResult struct {
	Format   string
	Workers  int
	MinNs    float64        // ns per product, the least of the timed rounds
	MedianNs float64        // and their median
	GFLOPS   float64        // at MinNs
	Bytes    int64          // the built format's footprint
	Traits   formats.Traits // and its structural costs
	Err      error          // no rate: the build was refused (formats.ErrBuild), the first product was wrong or a call failed
}

// NativeEngine runs real format kernels on the host machine, the
// measurement path the paper used on its CPU testbeds (there: 128
// iterations, average performance; here: the minimum of measure.Compare's
// rounds).
type NativeEngine struct {
	Workers int // 0: GOMAXPROCS
}

// nativeRounds rounds of at least nativeMinTime per format: one call a
// round from a few tens of megabytes up, many on a cache-resident matrix.
const (
	nativeRounds  = 8
	nativeMinTime = 2 * time.Millisecond
)

// Run measures one format's product with k right-hand sides on one
// matrix. The first product is verified against the CSR reference, column
// by column, before timing, to the dot product's forward bound (any
// accumulation order fits it); a kernel that fails is not timed.
func (e NativeEngine) Run(m *matrix.CSR, builder formats.Builder, k int) NativeResult {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, exec.MaxWorkers()) // what the kernels can use: the engine's cap
	res := NativeResult{Format: builder.Name, Workers: workers}
	f, err := builder.Build(m)
	if err != nil {
		res.Err = err
		return res
	}
	res.Bytes, res.Traits = f.Bytes(), f.Traits()
	x := matrix.RandomVector(m.Cols*k, 12345)
	y := make([]float64, m.Rows*k)
	ctx := context.Background()
	product := func() error { return f.Apply(ctx, y, x, k, workers) }

	exec.Prestart() // timed calls must not pay pool startup
	if res.Err = product(); res.Err != nil {
		return res
	}
	want, xt, yt := make([]float64, m.Rows*k), make([]float64, m.Cols), make([]float64, m.Rows)
	for t := 0; t < k; t++ {
		for c := range xt {
			xt[c] = x[c*k+t]
		}
		m.SpMV(xt, yt)
		for r, v := range yt {
			want[r*k+t] = v
		}
	}
	if i, ok := m.WithinDotBound(x, k, y, want); !ok {
		res.Err = fmt.Errorf("device: %s: wrong product, y[%d] = %v against the CSR reference's %v", builder.Name, i, y[i], want[i])
		return res
	}

	r, _ := measure.Compare(ctx, []func() error{product}, nativeRounds, nativeMinTime) // nothing cancels it
	if res.Err = r[0].Err; res.Err == nil {
		res.MinNs, res.MedianNs = r[0].MinNs, r[0].MedianNs
		res.GFLOPS = 2 * float64(m.NNZ()) * float64(k) / res.MinNs
	}
	return res
}

// HostSpec models the current machine as a Spec so modeled and native
// results can sit on the same axes: Host at the usable core count and the
// SIMD width the dispatch layer detected and enabled, under the in-core
// table formats.MeasureClasses reads — once per process and dispatch tier,
// at the first call (a millisecond or two), never again.
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
