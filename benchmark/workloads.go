package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// Load model constants. The timed phase (-seconds) is cut into slots of
// windowLen (at least minWindows of them: a shorter phase is cut into
// that many); a slot is one window of operations followed by one reading
// of the host's speed (hostref.go). The warm-up lasts warmWindows slots.
const (
	windowLen         = time.Second
	minWindows        = 5
	warmWindows       = 2
	xPoolPerClient    = 4  // request vectors each client rotates over
	verifyEvery       = 16 // 1 in 16 timed operations is fully compared
	requestDeadline   = 30 * time.Second
	minSetups         = 5  // cold set-ups per run; setup_s is their median
	maxSetups         = 15 // cheap set-ups repeat more often, within setupBudget
	setupBudget       = time.Second
	cellsPerPost      = 128 // serve-update: cell operations per POST /cells
	deleteEvery       = 8   // 1 in 8 cell operations is a delete
	multipliesPerPost = 4   // serve-update: multiplies between two cell batches
)

type kind int

const (
	kindLib    kind = iota // in-process facade, one caller
	kindServed             // spmv-serve over loopback HTTP, C clients
)

// workload is one named traffic mix. Why records what it stresses and why
// it exists; BENCHMARK.json carries the same text.
type workload struct {
	Name string
	Why  string
	Kind kind
	// Params is the generator recipe minus the seed.
	Params gen.Params
	// MatrixMarket uploads the matrix as an inline MatrixMarket body
	// instead of a generator spec (served workloads only).
	MatrixMarket bool
	// Updatable hosts the matrix behind the delta overlay and mixes cell
	// batches into the multiplies.
	Updatable bool
	// RefRate is the workload's nominal host speed: what the yardstick of
	// hostref.go reads on this workload's matrix, in Mnnz/s, on the host
	// the benchmark was written on (2 vCPUs, C = 2) at its median over two
	// sets of ten runs. Every end-to-end metric is expressed at this speed.
	// It is a unit, not a tuning knob: changing it rescales the workload's
	// numbers and breaks comparison with every earlier report.
	RefRate float64
}

// tier is the internal/bench generator recipe every workload starts from.
func tier(rows int, avg float64) gen.Params {
	return gen.Params{Rows: rows, Cols: rows, AvgNNZPerRow: avg, StdNNZPerRow: 0.25 * avg,
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8}
}

func denseRows(rows int, avg float64) gen.Params {
	p := tier(rows, avg)
	// At 1000 of 3000 columns per row the feasible skew maximum is 2.
	p.BWScaled, p.SkewCoeff = 1, 0.5
	return p
}

var workloads = []workload{
	{Name: "lib-stream", Kind: kindLib, Params: tier(420000, 20), RefRate: 350,
		Why: "420000^2 x 20 nnz/row (98 MB CSR) through the facade: kernel and memory system are >= 90 % of an op; where bandwidth work must show and pct_roof is read"},
	{Name: "lib-small", Kind: kindLib, Params: tier(8000, 10), RefRate: 900,
		Why: "8000^2 x 10 nnz/row (< 1 MB, cache-resident, above the serial cutoff): dispatch, wake-up and facade cost rival the kernel; a bandwidth win must not move it"},
	{Name: "serve-batch", Kind: kindServed, Params: denseRows(3000, 1000), RefRate: 1000,
		Why: "daemon, C clients, generator upload of 3000^2 x 1000 nnz/row (55 KB bodies): kernel + coalescer dominate a request; the only user of the fused k>1 path and the 200 us window"},
	{Name: "serve-wide", Kind: kindServed, Params: tier(50000, 5), MatrixMarket: true, RefRate: 670,
		Why: "daemon, C clients, MatrixMarket upload of 50000^2 x 5 nnz/row (~1 MB JSON each way): codec + HTTP are >= 70 % of a request, the kernel < 10 %; transport changes show here only"},
	// Resized from the design's 5000^2 x 100 so that three compactions
	// finish in the shortened timed phase even on a slow run: at 160 k
	// nonzeros the daemon's trigger is its 8192-entry floor.
	{Name: "serve-update", Kind: kindServed, Params: tier(2500, 64), Updatable: true, RefRate: 1150,
		Why: "daemon, C clients, updatable 2500^2 x 64 nnz/row: 1 POST /cells (128 ops, 1 in 8 deletes) per 4 multiplies, writes beside reads through the overlay with background compactions"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one run needs from its surroundings.
type env struct {
	root    string // module root of the tree under test
	build   string // build outputs kept between runs, inside the checkout
	scratch string // this run's temp dirs, inside the checkout, removed on exit
	clients int    // C
	seed    int64
	seconds float64 // timed phase
	smoke   bool    // -smoke: schema check, validity floors waived
	daemon  string  // path of the built spmv-serve binary ("" until built)
}

// timedWindows is the number of slots the timed phase is cut into.
func (e *env) timedWindows() int {
	return max(minWindows, int(math.Round(e.seconds/windowLen.Seconds())))
}

// window is how long a slot issues operations: the slot less the reading
// that follows it, so the timed phase as a whole lasts -seconds.
func (e *env) window() time.Duration {
	slot := time.Duration(e.seconds / float64(e.timedWindows()) * float64(time.Second))
	return max(slot-refSliceLen, slot/2)
}

// phase is the length of each loop of the traced run, a fifth of -seconds.
func (e *env) phase() time.Duration {
	return time.Duration(e.seconds / 5 * float64(time.Second))
}

// inputs are the seed-derived data of one run: the matrix, and per client
// a pool of request vectors with their reference products.
type inputs struct {
	m    *matrix.CSR
	xs   [][][]float64 // [client][slot]
	refs [][][]float64
	genS float64 // gen.Generate wall time, excluded from setup_s
}

// makeInputs builds the workload's matrix and vectors from the seed: the
// same seed gives the same inputs. The reference is the seed CSR kernel,
// matrix.CSR.SpMV.
func makeInputs(w workload, seed int64, clients int, tr *tracer, parent int) (*inputs, error) {
	p := w.Params
	p.Seed = seed
	id := tr.begin("gen.generate", parent, 0)
	t0 := time.Now()
	m, err := gen.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.Name, err)
	}
	in := &inputs{m: m, genS: time.Since(t0).Seconds()}
	tr.end(id)
	in.xs = make([][][]float64, clients)
	in.refs = make([][][]float64, clients)
	for c := range in.xs {
		for s := 0; s < xPoolPerClient; s++ {
			x := matrix.RandomVector(m.Cols, seed*7919+int64(c*xPoolPerClient+s))
			ref := make([]float64, m.Rows)
			m.SpMV(x, ref)
			in.xs[c] = append(in.xs[c], x)
			in.refs[c] = append(in.refs[c], ref)
		}
	}
	return in, nil
}

// matches compares a result with its reference elementwise at
// 1e-9*max(1,|ref|), which covers the documented reassociation of the
// dot-gather kernels and nothing coarser.
func matches(y, ref []float64) bool {
	if len(y) != len(ref) {
		return false
	}
	for i, r := range ref {
		d := math.Abs(y[i] - r)
		if !(d <= 1e-9*math.Max(1, math.Abs(r))) { // !(<=) also rejects NaN
			return false
		}
	}
	return true
}

// flops is the paper's operation count for one multiply by vectors
// right-hand sides (cusp convention: 2*nnz each).
func flops(nnz int64, vectors int) float64 { return 2 * float64(nnz) * float64(vectors) }
