package spmv_test

import (
	"context"
	"fmt"
	"math"
	"os"

	spmv "repro"
)

// The examples below are the README quick start, verified by `go test`:
// generate an artificial matrix from target features, extract its feature
// vector, and run SpMV in a non-CSR storage format against the CSR
// reference.

// ExampleGenerate builds a small artificial matrix from a feature-space
// target (Listing 1 of the paper).
func ExampleGenerate() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d x %d matrix, avg %.1f nnz/row\n", m.Rows, m.Cols, m.AvgRowNNZ())
	// Output:
	// 2000 x 2000 matrix, avg 8.0 nnz/row
}

// ExampleExtract measures the five-feature vector (Section III-A) of a
// generated matrix: the generator's output lands near its targets.
func ExampleExtract() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	fv := spmv.Extract(m)
	fmt.Printf("avg nnz/row %.1f, skew %.1f, bw %.2f\n",
		fv.AvgNNZPerRow, fv.SkewCoeff, fv.BWScaled)
	// Output:
	// avg nnz/row 8.0, skew 5.1, bw 0.08
}

// ExampleFormatByName builds one storage format and checks its parallel
// SpMV kernel against the CSR reference.
func ExampleFormatByName() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	b, ok := spmv.FormatByName("SELL-C-s")
	if !ok {
		panic("unknown format")
	}
	f, err := b.Build(m)
	if err != nil {
		panic(err)
	}

	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	want := make([]float64, m.Rows) // CSR reference product
	m.SpMV(x, want)
	got := make([]float64, m.Rows)
	f.SpMVParallel(x, got, 8)

	maxDiff := 0.0
	for i := range got {
		maxDiff = math.Max(maxDiff, math.Abs(got[i]-want[i]))
	}
	fmt.Printf("%s stores %d nnz, matches CSR within 1e-9: %v\n",
		f.Name(), f.NNZ(), maxDiff < 1e-9)
	// Output:
	// SELL-C-s stores 16000 nnz, matches CSR within 1e-9: true
}

// ExampleAuto lets the selection subsystem pick the storage format: the
// five-feature vector is extracted, a k-regime-aware device model
// shortlists candidates, and (with Probe) a micro-probe times them on a
// row sample. The chosen format is a regular Format whose product matches
// the CSR reference; which format wins depends on the host, so the
// example checks the contract, not the name.
func ExampleAuto() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	f, err := spmv.Auto(m, spmv.AutoOptions{K: 8}) // selecting for an 8-wide block workload
	if err != nil {
		panic(err)
	}

	const k = 8
	x := make([]float64, m.Cols*k)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.Rows*k)
	f.MultiplyMany(y, x, k)

	want := make([]float64, m.Rows) // CSR reference product, all-ones RHS
	m.SpMV(x[:m.Cols], want)
	maxDiff := 0.0
	for r := 0; r < m.Rows; r++ {
		for t := 0; t < k; t++ {
			maxDiff = math.Max(maxDiff, math.Abs(y[r*k+t]-want[r]))
		}
	}
	choice := f.Choice()
	fmt.Printf("auto chose a shortlisted format for k=%d, matches CSR within 1e-9: %v\n",
		choice.K, maxDiff < 1e-9)
	// Output:
	// auto chose a shortlisted format for k=8, matches CSR within 1e-9: true
}

// ExampleMultiplyMany multiplies a block of 8 right-hand sides in one
// fused pass (SpMM) and checks it against 8 independent SpMV calls — the
// baseline it outperforms by reusing every loaded nonzero 8 times.
func ExampleMultiplyMany() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		panic(err)
	}

	const k = 8 // right-hand sides, stored row-major: k values per row
	x := make([]float64, m.Cols*k)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	y := make([]float64, m.Rows*k)
	if err := spmv.MultiplyMany(f, y, x, k); err != nil {
		panic(err)
	}

	// Reference: one SpMV per vector, gathered from the block layout.
	xj := make([]float64, m.Cols)
	yj := make([]float64, m.Rows)
	maxDiff := 0.0
	for t := 0; t < k; t++ {
		for c := 0; c < m.Cols; c++ {
			xj[c] = x[c*k+t]
		}
		m.SpMV(xj, yj)
		for r := 0; r < m.Rows; r++ {
			maxDiff = math.Max(maxDiff, math.Abs(y[r*k+t]-yj[r]))
		}
	}
	fmt.Printf("fused %d-vector product matches %d SpMV calls within 1e-9: %v\n",
		k, k, maxDiff < 1e-9)
	// Output:
	// fused 8-vector product matches 8 SpMV calls within 1e-9: true
}

// ExampleMultiplyCtx shows the cancellable facade: deadlines and
// cancellation propagate into the execution engine, whose worker lanes
// poll the context at partition-chunk granularity — an abandoned call
// returns the context's error promptly instead of finishing its sweep,
// and the engine keeps serving.
func ExampleMultiplyCtx() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		panic(err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)

	// A live context multiplies normally.
	if err := spmv.MultiplyCtx(context.Background(), f, y, x); err != nil {
		panic(err)
	}

	// A caller that gave up — here before the call even starts — gets the
	// context's error back; y must be treated as garbage, and the engine
	// is untouched.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = spmv.MultiplyCtx(ctx, f, y, x)
	fmt.Println("cancelled call:", err)

	// The next multiply on the same format succeeds.
	fmt.Println("engine still serves:", spmv.MultiplyCtx(context.Background(), f, y, x) == nil)
	// Output:
	// cancelled call: context canceled
	// engine still serves: true
}

// ExampleFormats lists the first of the registry's twelve storage
// formats, state-of-practice first.
func ExampleFormats() {
	for _, b := range spmv.Formats()[:4] {
		fmt.Println(b.Name)
	}
	fmt.Printf("... %d formats total\n", len(spmv.Formats()))
	// Output:
	// COO
	// Naive-CSR
	// Vec-CSR
	// Bal-CSR
	// ... 12 formats total
}

// ExampleSetCacheDir turns on the persistence layer: auto-format
// decisions and probe outcomes journal to disk and load on the next
// start, so a restarted server re-probes nothing it has seen. The example
// uses a throwaway directory; a server would pass its cache path once (or
// set SPMV_CACHE_DIR and call nothing at all).
func ExampleSetCacheDir() {
	dir, err := os.MkdirTemp("", "spmv-journal")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := spmv.SetCacheDir(dir); err != nil {
		panic(err)
	}
	defer spmv.UnsetCacheDir() // the temp dir is about to vanish

	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 8, StdNNZPerRow: 2,
		SkewCoeff: 5, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	first, err := spmv.Auto(m, spmv.AutoOptions{K: 8})
	if err != nil {
		panic(err)
	}
	// A second build of the same matrix under the same (device, k) context
	// resolves from the cache — after a real restart, from the journal on
	// disk.
	second, err := spmv.Auto(m, spmv.AutoOptions{K: 8})
	if err != nil {
		panic(err)
	}
	fmt.Printf("same decision: %v, second build cached: %v\n",
		first.Chosen() == second.Chosen(), second.Choice().Cached)
	// Output:
	// same decision: true, second build cached: true
}

// ExampleNewUpdatable shows the update layer: a read-optimized base with
// a concurrent delta overlay, mutated while multiplies keep running, then
// compacted back into a single fresh base.
func ExampleNewUpdatable() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 1000, Cols: 1000,
		AvgNNZPerRow: 6, StdNNZPerRow: 2,
		SkewCoeff: 4, BWScaled: 0.2,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 9,
	})
	if err != nil {
		panic(err)
	}
	u, err := spmv.NewUpdatable(m, spmv.UpdateOptions{Format: "Naive-CSR"})
	if err != nil {
		panic(err)
	}
	// Updates are safe while other goroutines multiply; each multiply
	// observes a consistent snapshot of base + overlay.
	u.Set(3, 4, 2.5)
	u.Add(3, 4, 0.5)
	u.Delete(7, 7)

	x := make([]float64, u.Cols())
	y := make([]float64, u.Rows())
	x[4] = 1
	u.SpMVParallel(x, y, 4)
	fmt.Printf("y[3] = %.1f, cell (7,7) = %.0f\n", y[3], u.At(7, 7))

	// Compact folds the overlay into a fresh base matrix (deletions
	// reclaim storage) and re-selects the base format.
	if err := u.Compact(); err != nil {
		panic(err)
	}
	fmt.Printf("after compaction: overlay empty: %v, still reads %.1f\n",
		u.Stats().FrozenLen == 0 && u.Stats().ActiveLen == 0, u.At(3, 4))
	// Output:
	// y[3] = 3.0, cell (7,7) = 0
	// after compaction: overlay empty: true, still reads 3.0
}
