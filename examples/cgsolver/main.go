// Conjugate-gradient solver: the application the paper's introduction
// motivates — SpMV dominating a sparse iterative solver. Solves a 2-D
// Poisson problem with CG, once per storage format, and reports the SpMV
// share of solver time and the iteration count (identical across formats,
// since all kernels compute the same product).
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"repro/internal/formats"
	"repro/internal/matrix"
)

func main() {
	const grid = 192 // 36864 unknowns, SPD 5-point Laplacian
	a := matrix.Laplacian2D(grid, grid)
	n := a.Rows
	fmt.Printf("solving Poisson on a %dx%d grid: %s\n\n", grid, grid, a)

	// A right-hand side with a known solution x* = 1.
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	a.SpMV(ones, b)

	workers := runtime.GOMAXPROCS(0)
	for _, builder := range []string{"Naive-CSR", "Vec-CSR", "CSR5", "Merge-CSR", "SELL-C-s", "SparseX", "ELL"} {
		fb, ok := formats.Lookup(builder)
		if !ok {
			log.Fatalf("unknown format %s", builder)
		}
		f, err := fb.Build(a)
		if err != nil {
			fmt.Printf("%-10s build refused: %v\n", builder, err)
			continue
		}
		x, iters, spmvTime, total := solveCG(f, b, workers, 1e-10, 2000)
		fmt.Printf("%-10s %4d iters  %.3fs total  %5.1f%% in SpMV  ||x-1||_inf = %.2e\n",
			builder, iters, total.Seconds(), 100*spmvTime.Seconds()/total.Seconds(), maxErr(x))
	}
}

// solveCG runs conjugate gradients with f as the operator.
func solveCG(f formats.Format, b []float64, workers int, tol float64, maxIter int) ([]float64, int, time.Duration, time.Duration) {
	n := len(b)
	x := make([]float64, n)
	r := append([]float64(nil), b...) // r = b - A*0
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rr := dot(r, r)
	bnorm := math.Sqrt(dot(b, b))

	var spmvTime time.Duration
	start := time.Now()
	iters := 0
	for ; iters < maxIter && math.Sqrt(rr) > tol*bnorm; iters++ {
		t0 := time.Now()
		f.SpMVParallel(p, ap, workers)
		spmvTime += time.Since(t0)

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
	return x, iters, spmvTime, time.Since(start)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func maxErr(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if d := math.Abs(v - 1); d > max {
			max = d
		}
	}
	return max
}
