package formats

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// Engine-tier benchmarks: the iterative-workload shape the exec engine
// targets. Each op is one SpMVParallel call on a pre-built format, exactly
// what a CG loop issues thousands of times. The tiers separate matrices
// whose kernel time is dwarfed by per-call scheduling overhead (tiny/small,
// both under 1 MB as CSR) from those where the kernel dominates (large).
// For a before/after, build both test binaries and alternate them, -count 3,
// minimum ns/op per (tier, format) (docs/BENCHMARKS.md).

type engineTier struct {
	name string
	rows int
	avg  float64
}

var engineTiers = []engineTier{
	{"tiny-8k", 1000, 8},     // ~8e3 nnz, ~0.1 MB
	{"small-80k", 8000, 10},  // ~8e4 nnz, ~1 MB
	{"large-2M", 100000, 20}, // ~2e6 nnz, ~24 MB
}

// engineFormats covers every registry format; build refusals (DIA and
// friends on scattered sparsity) are skipped per-subbenchmark.
func engineFormats() []string {
	var names []string
	for _, b := range Registry() {
		names = append(names, b.Name)
	}
	return names
}

func engineMatrix(b *testing.B, t engineTier) *matrix.CSR {
	b.Helper()
	m, err := gen.Generate(gen.Params{
		Rows: t.rows, Cols: t.rows,
		AvgNNZPerRow: t.avg, StdNNZPerRow: t.avg / 4,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 1.0,
		Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkEngineTier measures steady-state SpMVParallel across tiers and
// scheduling disciplines at a fixed worker count.
func BenchmarkEngineTier(b *testing.B) {
	const workers = 4
	for _, tier := range engineTiers {
		m := engineMatrix(b, tier)
		for _, name := range engineFormats() {
			fb, ok := Lookup(name)
			if !ok {
				b.Fatalf("unknown format %s", name)
			}
			f, err := fb.Build(m)
			x := matrix.RandomVector(m.Cols, 7)
			y := make([]float64, m.Rows)
			b.Run(fmt.Sprintf("%s/%s", tier.name, name), func(b *testing.B) {
				if err != nil {
					b.Skipf("build refused: %v", err)
				}
				f.SpMVParallel(x, y, workers) // warm up plans and pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.SpMVParallel(x, y, workers)
				}
				b.StopTimer()
				gflops := 2 * float64(m.NNZ()) * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(gflops, "GFLOPS")
			})
		}
	}
}

// skewTier is the trajectory benchmark's lib-stream recipe at the given row
// count: 20 nonzeros a row on average at skew 4, row length decaying from
// ~78 in the first row decile to ~2.6 in the last.
func skewTier(tb testing.TB, rows int) *matrix.CSR {
	tb.Helper()
	m, err := gen.Generate(gen.Params{
		Rows: rows, Cols: rows, AvgNNZPerRow: 20, StdNNZPerRow: 5,
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkSkewedApply measures what chunk claiming is for, layer-locally:
// Apply at one and two workers on a skew-4 tier a quarter of lib-stream's
// size, for an equal-rows initial split (Naive-CSR), an equal-nonzeros one
// (MKL-IE) and an equal-chunks one (SELL-C-s), at k = 1 and at the fused
// k = 8. ns/op at two workers against one is the scaling.
func BenchmarkSkewedApply(b *testing.B) {
	m := skewTier(b, 105000)
	ctx := context.Background()
	for _, name := range []string{"Naive-CSR", "MKL-IE", "SELL-C-s"} {
		fb, _ := Lookup(name)
		f, err := fb.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{1, 8} {
			x := matrix.RandomVector(m.Cols*k, 7)
			y := make([]float64, m.Rows*k)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/k%d/w%d", name, k, workers), func(b *testing.B) {
					// Warm the plan, and the pool for long enough that its
					// workers have settled on their own CPUs and poll.
					for warm := time.Now(); time.Since(warm) < 50*time.Millisecond; {
						if err := f.Apply(ctx, y, x, k, workers); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := f.Apply(ctx, y, x, k, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkCSRRowRange times the vectorized CSR row kernel by row length:
// Vec-CSR at k = 1 on one lane over 2^20 nonzeros in rows of one constant
// length, columns drawn over a 512 KB x. ns/op across the lengths fits
// the kernel's cost per row and per nonzero (ROADMAP item 5(a')); for a
// before/after, interleave the parent's and the change's test binaries and
// take minima.
func BenchmarkCSRRowRange(b *testing.B) {
	const nnz, cols = 1 << 20, 1 << 16
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 5, 8, 12, 20, 64, 1000} {
		rows := nnz / n
		m := matrix.RandomRowSizes(rows, cols, uniformSizes(rows, n), int64(n))
		f := newPreset("Vec-CSR", m)
		x, y := matrix.RandomVector(cols, 7), make([]float64, rows)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.Apply(ctx, y, x, 1, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
	}
}

// Ablation A2: SELL-C-sigma sorting scope. Larger sigma removes more
// padding on skewed matrices at equal kernel shape.
func BenchmarkAblationSELLSigma(b *testing.B) {
	m, err := gen.Generate(gen.Params{
		Rows: 100000, Cols: 100000,
		AvgNNZPerRow: 12, StdNNZPerRow: 8,
		SkewCoeff: 200, BWScaled: 0.3, CrossRowSim: 0.3, AvgNumNeigh: 0.5, Seed: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, sigma := range []int{1, 32, 256, 4096} {
		b.Run(fmt.Sprintf("sigma=%d", sigma), func(b *testing.B) {
			f, err := newSELLCS(m, DefaultChunk, sigma)
			if err != nil {
				b.Skipf("build: %v", err)
			}
			x := matrix.RandomVector(m.Cols, 7)
			y := make([]float64, m.Rows)
			b.ReportMetric(f.Traits().PaddingRatio, "pad-ratio")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.SpMV(x, y)
			}
		})
	}
}

// Ablation A3: HYB split threshold around the mean row length.
func BenchmarkAblationHYBThreshold(b *testing.B) {
	m, err := gen.Generate(gen.Params{
		Rows: 100000, Cols: 100000,
		AvgNNZPerRow: 16, StdNNZPerRow: 10,
		SkewCoeff: 100, BWScaled: 0.3, CrossRowSim: 0.3, AvgNumNeigh: 0.5, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	avg := int(m.AvgRowNNZ())
	for _, k := range []int{avg / 2, avg, 2 * avg} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f, err := newHYBThreshold(m, k)
			if err != nil {
				b.Fatal(err)
			}
			x := matrix.RandomVector(m.Cols, 7)
			y := make([]float64, m.Rows)
			b.ReportMetric(float64(f.spill.NNZ())/float64(m.NNZ()), "spill-frac")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.SpMV(x, y)
			}
		})
	}
}
