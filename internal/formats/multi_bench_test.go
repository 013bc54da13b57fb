package formats

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// Multi-vector benchmarks: one op is one fused k-wide MultiplyMany call or
// its baseline — k sequential SpMVParallel calls — on a pre-built format.
// The trajectory benchmark reads the fused/sequential ratio as
// formats.k8_per_vec_speedup; these Go benchmarks keep the same kernels
// under `go test -bench` (and the CI bench-smoke step) so they cannot rot
// between perf PRs.

const benchRHS = 8

// multiBenchFormats are the fused hot-path formats.
var multiBenchFormats = []string{"Naive-CSR", "Vec-CSR", "ELL", "SELL-C-s", "BCSR", "COO"}

func benchmarkMulti(b *testing.B, m *matrix.CSR, matName string) {
	b.Helper()
	// The baseline gets the same worker budget MultiplyMany claims
	// internally, so the fused/seq ratio isolates kernel fusion rather
	// than a parallelism gap.
	workers := exec.MaxWorkers()
	k := benchRHS
	x := matrix.RandomVector(m.Cols*k, 7)
	y := make([]float64, m.Rows*k)
	xs := make([][]float64, k)
	ys := make([][]float64, k)
	for j := 0; j < k; j++ {
		xs[j] = make([]float64, m.Cols)
		ys[j] = make([]float64, m.Rows)
		for c := 0; c < m.Cols; c++ {
			xs[j][c] = x[c*k+j]
		}
	}
	for _, name := range multiBenchFormats {
		fb, ok := Lookup(name)
		if !ok {
			b.Fatalf("unknown format %s", name)
		}
		f, err := fb.Build(m)
		b.Run(fmt.Sprintf("%s/%s/fused", matName, name), func(b *testing.B) {
			if err != nil {
				b.Skipf("build refused: %v", err)
			}
			f.MultiplyMany(y, x, k) // warm up plans and pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.MultiplyMany(y, x, k)
			}
			b.StopTimer()
			gflops := 2 * float64(k) * float64(m.NNZ()) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gflops, "GFLOPS")
		})
		b.Run(fmt.Sprintf("%s/%s/seq", matName, name), func(b *testing.B) {
			if err != nil {
				b.Skipf("build refused: %v", err)
			}
			f.SpMVParallel(xs[0], ys[0], workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					f.SpMVParallel(xs[j], ys[j], workers)
				}
			}
			b.StopTimer()
			gflops := 2 * float64(k) * float64(m.NNZ()) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkMultiplyMany measures the fused k=8 kernels against the
// sequential baseline on a scattered and a banded matrix.
func BenchmarkMultiplyMany(b *testing.B) {
	benchmarkMulti(b, engineMatrix(b, engineTiers[1]), engineTiers[1].name)
	benchmarkMulti(b, matrix.Tridiagonal(50000, 2, -1), "banded-150k")
}
