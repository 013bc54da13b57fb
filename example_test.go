package spmv_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"

	spmv "repro"
	"repro/internal/dataset"
	"repro/internal/matrix"
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

// ExampleFormats lists the first of the registry's eleven storage
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
	// ... 11 formats total
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

// Example_quickstart generates an artificial matrix from target features,
// measures its features back, and runs SpMV in every storage format against
// the CSR reference: every format computes the same product, up to
// floating-point reassociation.
func Example_quickstart() {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 5000, Cols: 5000,
		AvgNNZPerRow: 20, StdNNZPerRow: 6,
		SkewCoeff: 10, BWScaled: 0.3,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0,
		Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("generated:", m)
	fv := spmv.Extract(m)
	fmt.Printf("features: avg=%.1f skew=%.1f sim=%.2f neigh=%.2f\n",
		fv.AvgNNZPerRow, fv.SkewCoeff, fv.CrossRowSim, fv.AvgNumNeigh)

	x := matrix.RandomVector(m.Cols, 7)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)
	got := make([]float64, m.Rows)
	for _, b := range spmv.Formats() {
		f, err := b.Build(m)
		if err != nil {
			fmt.Printf("%-10s build refused\n", b.Name)
			continue
		}
		f.SpMVParallel(x, got, 4)
		fmt.Printf("%-10s %.2f MiB stored, matches CSR within 1e-12: %v\n",
			b.Name, float64(f.Bytes())/(1<<20), maxAbsDiff(got, want) < 1e-12)
	}
	// Output:
	// generated: CSR 5000x5000 nnz=100000 (1.16 MiB, 20.00 nnz/row)
	// features: avg=20.0 skew=10.2 sim=0.56 neigh=1.17
	// COO        1.53 MiB stored, matches CSR within 1e-12: true
	// Naive-CSR  0.97 MiB stored, matches CSR within 1e-12: true
	// Vec-CSR    0.97 MiB stored, matches CSR within 1e-12: true
	// Bal-CSR    0.97 MiB stored, matches CSR within 1e-12: true
	// MKL-IE     0.97 MiB stored, matches CSR within 1e-12: true
	// HYB        1.94 MiB stored, matches CSR within 1e-12: true
	// CSR5       1.24 MiB stored, matches CSR within 1e-12: true
	// Merge-CSR  0.97 MiB stored, matches CSR within 1e-12: true
	// SELL-C-s   1.19 MiB stored, matches CSR within 1e-12: true
	// SparseX    0.99 MiB stored, matches CSR within 1e-12: true
	// BCSR       1.68 MiB stored, matches CSR within 1e-12: true
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// Example_cgsolver is the application the paper's introduction motivates:
// SpMV dominating a sparse iterative solver. Conjugate gradients solve a 2-D
// Poisson problem with a known solution once per storage format; every
// kernel computes the same product, so every solve converges alike.
func Example_cgsolver() {
	const grid = 48 // 2304 unknowns, SPD 5-point Laplacian
	a := matrix.Laplacian2D(grid, grid)
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, a.Rows) // right-hand side of the solution x* = 1
	a.SpMV(ones, b)

	for _, name := range []string{"Naive-CSR", "Vec-CSR", "CSR5", "Merge-CSR", "SELL-C-s", "SparseX", "HYB"} {
		fb, _ := spmv.FormatByName(name)
		f, err := fb.Build(a)
		if err != nil {
			fmt.Printf("%-10s build refused\n", name)
			continue
		}
		x, iters := solveCG(f, b, 1e-10, 2000)
		fmt.Printf("%-10s %3d iterations, ||x-1||_inf < 1e-8: %v\n", name, iters, maxAbsDiff(x, ones) < 1e-8)
	}
	// Output:
	// Naive-CSR  102 iterations, ||x-1||_inf < 1e-8: true
	// Vec-CSR    102 iterations, ||x-1||_inf < 1e-8: true
	// CSR5       102 iterations, ||x-1||_inf < 1e-8: true
	// Merge-CSR  102 iterations, ||x-1||_inf < 1e-8: true
	// SELL-C-s   102 iterations, ||x-1||_inf < 1e-8: true
	// SparseX    102 iterations, ||x-1||_inf < 1e-8: true
	// HYB        102 iterations, ||x-1||_inf < 1e-8: true
}

// solveCG runs conjugate gradients with f as the operator.
func solveCG(f spmv.Format, b []float64, tol float64, maxIter int) ([]float64, int) {
	dot := func(u, v []float64) float64 {
		s := 0.0
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	x := make([]float64, len(b))
	r := append([]float64(nil), b...) // r = b - A*0
	p := append([]float64(nil), b...)
	ap := make([]float64, len(b))
	rr, bnorm := dot(r, r), math.Sqrt(dot(b, b))
	iters := 0
	for ; iters < maxIter && math.Sqrt(rr) > tol*bnorm; iters++ {
		f.SpMVParallel(p, ap, 4)
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return x, iters
}

// Example_generator sweeps features across the paper's Table I grid values
// and measures what each generated matrix actually has: the generator
// fidelity the paper's validation (Section V-A) rests on.
func Example_generator() {
	base := spmv.GeneratorParams{
		Rows: 6000, Cols: 6000,
		AvgNNZPerRow: 20, StdNNZPerRow: 6,
		SkewCoeff: 0, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 0.5,
		Seed: 1,
	}
	measure := func(p spmv.GeneratorParams) spmv.Features {
		m, err := spmv.Generate(p)
		if err != nil {
			panic(err)
		}
		return spmv.Extract(m)
	}
	fmt.Println("skew (f3):")
	for _, skew := range []float64{0, 100, 1000} {
		p := base
		p.SkewCoeff = skew
		fmt.Printf("  requested %6.0f  measured %8.1f\n", skew, measure(p).SkewCoeff)
	}
	fmt.Println("cross-row similarity (f4.a):")
	for _, sim := range []float64{0.05, 0.5, 0.95} {
		p := base
		p.CrossRowSim = sim
		fmt.Printf("  requested %6.2f  measured %8.3f\n", sim, measure(p).CrossRowSim)
	}
	fmt.Println("neighbours (f4.b):")
	for _, neigh := range []float64{0.05, 0.5, 0.95, 1.4, 1.9} {
		p := base
		p.AvgNumNeigh = neigh
		fmt.Printf("  requested %6.2f  measured %8.3f\n", neigh, measure(p).AvgNumNeigh)
	}
	fmt.Println("bandwidth (bw_scaled):")
	for _, bw := range []float64{0.05, 0.3, 0.6} {
		p := base
		p.BWScaled, p.CrossRowSim = bw, 0
		fmt.Printf("  requested %6.2f  measured %8.3f\n", bw, measure(p).BWScaled)
	}
	fmt.Println("row length (f2):")
	for _, avg := range []float64{5, 20, 100} {
		p := base
		p.AvgNNZPerRow, p.StdNNZPerRow = avg, avg*0.3
		fmt.Printf("  requested %6.1f  measured %8.2f\n", avg, measure(p).AvgNNZPerRow)
	}
	// Output:
	// skew (f3):
	//   requested      0  measured      1.1
	//   requested    100  measured    100.0
	//   requested   1000  measured    294.7
	// cross-row similarity (f4.a):
	//   requested   0.05  measured    0.093
	//   requested   0.50  measured    0.618
	//   requested   0.95  measured    0.844
	// neighbours (f4.b):
	//   requested   0.05  measured    0.082
	//   requested   0.50  measured    0.593
	//   requested   0.95  measured    1.083
	//   requested   1.40  measured    1.511
	//   requested   1.90  measured    1.857
	// bandwidth (bw_scaled):
	//   requested   0.05  measured    0.049
	//   requested   0.30  measured    0.290
	//   requested   0.60  measured    0.578
	// row length (f2):
	//   requested    5.0  measured     5.00
	//   requested   20.0  measured    20.00
	//   requested  100.0  measured   100.00
}

// ExampleDevices asks the nine testbed models where three representative
// workloads run best — a cache-friendly medium matrix, a huge streaming one
// and an irregular graph-shaped one — with the predicted performance, power
// and dominant bottleneck on every device: the decision logic behind the
// paper's Takeaways 2-4.
func ExampleDevices() {
	for _, w := range []struct {
		name string
		fv   spmv.Features
	}{
		{"medium cache-friendly (128MB, long rows, regular)", dataset.Point(128, 100, 0, 0.9, 1.8, 0.05)},
		{"huge streaming (1.5GB, moderate rows)", dataset.Point(1536, 50, 0, 0.5, 1.0, 0.3)},
		// Eight per row: below that, MKL-IE's inspector vectorizes only on a
		// SIMD host, and the testbeds' figures would depend on this machine.
		{"irregular graph (256MB, short rows, skewed)", dataset.Point(256, 8, 1000, 0.05, 0.05, 0.6)},
	} {
		fmt.Printf("== %s\n", w.name)
		var fastest, leanest string
		var bestPerf, bestEff float64
		for _, d := range spmv.Devices() {
			name, res, ok := d.BestFormat(w.fv)
			if !ok {
				fmt.Printf("  %-12s cannot run this matrix\n", d.Name)
				continue
			}
			fmt.Printf("  %-12s %8.2f GFLOPS %6.1f W via %-9s limited by %s\n",
				d.Name, res.GFLOPS, res.Watts, name, res.Bottleneck)
			if res.GFLOPS > bestPerf {
				bestPerf, fastest = res.GFLOPS, d.Name
			}
			if e := res.GFLOPSPerWatt(); e > bestEff {
				bestEff, leanest = e, d.Name
			}
		}
		fmt.Printf("  fastest: %s; most energy-efficient: %s\n", fastest, leanest)
	}
	// Output:
	// == medium cache-friendly (128MB, long rows, regular)
	//   AMD-EPYC-24     44.08 GFLOPS  180.0 W via SparseX   limited by memory-bandwidth intensity
	//   AMD-EPYC-64     54.53 GFLOPS  225.0 W via Naive-CSR limited by memory-bandwidth intensity
	//   ARM-NEON        25.09 GFLOPS  103.6 W via SparseX   limited by memory-bandwidth intensity
	//   INTEL-XEON       8.44 GFLOPS   85.7 W via SparseX   limited by memory-bandwidth intensity
	//   IBM-POWER9      26.12 GFLOPS  174.1 W via SparseX   limited by memory-bandwidth intensity
	//   Tesla-P100      21.74 GFLOPS  181.8 W via Bal-CSR   limited by memory-bandwidth intensity
	//   Tesla-V100      35.32 GFLOPS  181.8 W via Bal-CSR   limited by memory-bandwidth intensity
	//   Tesla-A100      60.59 GFLOPS  181.8 W via Merge-CSR limited by memory-bandwidth intensity
	//   Alveo-U280       7.81 GFLOPS   14.1 W via VSL       limited by memory-bandwidth intensity
	//   fastest: Tesla-A100; most energy-efficient: Alveo-U280
	// == huge streaming (1.5GB, moderate rows)
	//   AMD-EPYC-24      6.50 GFLOPS  123.4 W via Vec-CSR   limited by memory-bandwidth intensity
	//   AMD-EPYC-64     14.24 GFLOPS  161.0 W via MKL-IE    limited by memory-bandwidth intensity
	//   ARM-NEON        12.87 GFLOPS   79.1 W via MKL-IE    limited by memory-bandwidth intensity
	//   INTEL-XEON       6.78 GFLOPS   82.8 W via SparseX   limited by memory-bandwidth intensity
	//   IBM-POWER9      13.51 GFLOPS  147.1 W via SparseX   limited by memory-bandwidth intensity
	//   Tesla-P100      10.82 GFLOPS  181.8 W via Bal-CSR   limited by memory latency overheads
	//   Tesla-V100      17.42 GFLOPS  181.8 W via CSR5      limited by memory latency overheads
	//   Tesla-A100      38.74 GFLOPS  181.8 W via Bal-CSR   limited by memory latency overheads
	//   Alveo-U280       6.22 GFLOPS   14.1 W via VSL       limited by memory-bandwidth intensity
	//   fastest: Tesla-A100; most energy-efficient: Alveo-U280
	// == irregular graph (256MB, short rows, skewed)
	//   AMD-EPYC-24      6.12 GFLOPS  141.5 W via MKL-IE    limited by memory-bandwidth intensity
	//   AMD-EPYC-64     19.20 GFLOPS  205.2 W via MKL-IE    limited by memory-bandwidth intensity
	//   ARM-NEON         9.83 GFLOPS   87.0 W via MKL-IE    limited by memory-bandwidth intensity
	//   INTEL-XEON       4.58 GFLOPS   73.1 W via MKL-IE    limited by memory-bandwidth intensity
	//   IBM-POWER9       8.65 GFLOPS  148.0 W via Bal-CSR   limited by memory-bandwidth intensity
	//   Tesla-P100       5.42 GFLOPS  181.8 W via CSR5      limited by memory latency overheads
	//   Tesla-V100       9.00 GFLOPS  181.8 W via CSR5      limited by memory latency overheads
	//   Tesla-A100      20.43 GFLOPS  181.8 W via Merge-CSR limited by memory latency overheads
	//   Alveo-U280   cannot run this matrix
	//   fastest: Tesla-A100; most energy-efficient: ARM-NEON
}

// ExampleMultiplyMany_blockPower is the workload MultiplyMany exists for:
// subspace iteration on k vectors computes the k dominant eigenpairs of a
// symmetric operator, and its inner loop is one SpMM per iteration, Y = A*X,
// then re-orthonormalization. The fused kernel reads every nonzero once per
// iteration instead of k times.
func ExampleMultiplyMany_blockPower() {
	const k, iters = 4, 600
	a := matrix.Laplacian2D(12, 12)
	fb, _ := spmv.FormatByName("SELL-C-s")
	f, err := fb.Build(a)
	if err != nil {
		panic(err)
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n*k) // row-major: k values per row
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	orthonormalize(x, n, k)
	y := make([]float64, n*k)
	for it := 0; it < iters; it++ {
		if err := spmv.MultiplyMany(f, y, x, k); err != nil {
			panic(err)
		}
		copy(x, y)
		orthonormalize(x, n, k)
	}
	// Rayleigh quotients lambda_j = x_j . A x_j of the unit columns, and
	// their residuals ||A x_j - lambda_j x_j||.
	if err := spmv.MultiplyMany(f, y, x, k); err != nil {
		panic(err)
	}
	for j := 0; j < k; j++ {
		lambda, res := 0.0, 0.0
		for i := 0; i < n; i++ {
			lambda += x[i*k+j] * y[i*k+j]
		}
		for i := 0; i < n; i++ {
			d := y[i*k+j] - lambda*x[i*k+j]
			res += d * d
		}
		fmt.Printf("lambda_%d = %.4f, residual below 1e-3: %v\n", j, lambda, math.Sqrt(res) < 1e-3)
	}
	// Output:
	// lambda_0 = 7.8838, residual below 1e-3: true
	// lambda_1 = 7.7128, residual below 1e-3: true
	// lambda_2 = 7.7128, residual below 1e-3: true
	// lambda_3 = 7.5418, residual below 1e-3: true
}

// orthonormalize runs modified Gram-Schmidt over the k columns of the
// row-major block, keeping the iteration a subspace iteration rather than
// k coupled power methods.
func orthonormalize(x []float64, n, k int) {
	for j := 0; j < k; j++ {
		for p := 0; p < j; p++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += x[i*k+p] * x[i*k+j]
			}
			for i := 0; i < n; i++ {
				x[i*k+j] -= dot * x[i*k+p]
			}
		}
		norm := 0.0
		for i := 0; i < n; i++ {
			norm += x[i*k+j] * x[i*k+j]
		}
		if norm = math.Sqrt(norm); norm == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			x[i*k+j] /= norm
		}
	}
}
