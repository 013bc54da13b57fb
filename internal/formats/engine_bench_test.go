package formats

import (
	"fmt"
	"testing"

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
