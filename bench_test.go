// Benchmarks regenerating the paper's tables and figures (one benchmark per
// artifact), micro-benchmarks of every storage format's kernels, and
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Figure/table benches report model-engine evaluation throughput; kernel
// benches report real GFLOPS on this host via the GFLOPS metric.
package spmv_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/selector"
)

// experimentOptions keeps figure benches fast while covering the grid.
func experimentOptions() bench.Options {
	return bench.Options{Dataset: dataset.Medium, SampleN: 300, Seed: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	o := experimentOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports := e.Run(o)
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}

func BenchmarkTable4_Validation(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig1_Validation(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig2_CrossDevice(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFig3_MemFootprint(b *testing.B) { runExperiment(b, "fig3") }
func BenchmarkFig4_RowSize(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkFig5_Imbalance(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig6_Irregularity(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7_Formats(b *testing.B)      { runExperiment(b, "fig7") }
func BenchmarkFig8_DatasetSize(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig9_Regularity(b *testing.B)   { runExperiment(b, "fig9") }

// kernelMatrix is the shared native-bench workload: mid-size, mildly skewed
// and clustered, ~2M nonzeros.
func kernelMatrix(b *testing.B) *matrix.CSR {
	b.Helper()
	m, err := gen.Generate(gen.Params{
		Rows: 100000, Cols: 100000,
		AvgNNZPerRow: 20, StdNNZPerRow: 6,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 1.0,
		Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchKernel(b *testing.B, m *matrix.CSR, workers int) {
	for _, fb := range formats.Registry() {
		b.Run(fb.Name, func(b *testing.B) {
			f, err := fb.Build(m)
			if err != nil {
				b.Skipf("build refused: %v", err)
			}
			x := matrix.RandomVector(m.Cols, 7)
			y := make([]float64, m.Rows)
			b.SetBytes(f.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if workers <= 1 {
					f.SpMV(x, y)
				} else {
					f.SpMVParallel(x, y, workers)
				}
			}
			b.StopTimer()
			gflops := 2 * float64(m.NNZ()) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

func BenchmarkKernelSerial(b *testing.B) {
	benchKernel(b, kernelMatrix(b), 1)
}

func BenchmarkKernelParallel(b *testing.B) {
	benchKernel(b, kernelMatrix(b), runtime.GOMAXPROCS(0))
}

func BenchmarkGenerator(b *testing.B) {
	p := gen.Params{
		Rows: 100000, Cols: 100000,
		AvgNNZPerRow: 20, StdNNZPerRow: 6,
		SkewCoeff: 100, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 1.0,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		m, err := gen.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	m := kernelMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Extract(m)
	}
}

// Ablation A1: whole rows against split rows under skew. Naive-CSR's lanes
// take whole rows from the driver's cut; Merge-CSR's split inside rows.
// The skewed matrix puts its heavy rows at the head, where one row can
// outweigh a lane's share.
func BenchmarkAblationPartitioning(b *testing.B) {
	m, err := gen.Generate(gen.Params{
		Rows: 200000, Cols: 200000,
		AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 2000, BWScaled: 0.3, CrossRowSim: 0.3, AvgNumNeigh: 0.5, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	for _, name := range []string{"Naive-CSR", "Merge-CSR"} {
		b.Run(name, func(b *testing.B) {
			fb, _ := formats.Lookup(name)
			f, err := fb.Build(m)
			if err != nil {
				b.Fatal(err)
			}
			x := matrix.RandomVector(m.Cols, 7)
			y := make([]float64, m.Rows)
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

// Ablation A5: analytic x-hit model vs trace-driven LRU simulation.
func BenchmarkAblationCacheModel(b *testing.B) {
	m, err := gen.Generate(gen.Params{
		Rows: 20000, Cols: 20000,
		AvgNNZPerRow: 15, StdNNZPerRow: 5,
		BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	fv := core.Extract(m)
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = device.XVectorHitRate(fv, 1<<20)
		}
	})
	b.Run("lru-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = device.SimulateXHitRate(m, 1<<20, 8)
		}
	})
}

// Ablation A6: generator worker scaling (chunk-parallel determinism means
// the output is identical at any worker count; only wall time changes).
func BenchmarkAblationGeneratorWorkers(b *testing.B) {
	p := gen.Params{
		Rows: 200000, Cols: 200000,
		AvgNNZPerRow: 20, StdNNZPerRow: 6,
		BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 13,
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.GenerateParallel(p, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Merge-path search cost, the per-worker setup of Merge-CSR.
func BenchmarkMergePathSearch(b *testing.B) {
	m := kernelMatrix(b)
	total := int64(m.Rows) + int64(m.NNZ())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sched.MergePathSearch(total/2, m.RowPtr, m.Rows)
	}
}

// Extension: format-selector quality and cost against exhaustive search.
func BenchmarkExtensionSelector(b *testing.B) {
	spec, ok := device.ByName("AMD-EPYC-24")
	if !ok {
		b.Fatal("missing testbed")
	}
	train := dataset.Medium.Sample(1000, 7)
	test := dataset.Medium.Sample(300, 11)
	knn := selector.TrainK(spec, train, 5, 1)
	b.Run("rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := selector.EvaluateK(spec, test, 1, func(fv core.FeatureVector) string {
				return selector.Rules(spec, fv)
			})
			b.ReportMetric(ev.Retained*100, "%retained")
		}
	})
	b.Run("knn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := selector.EvaluateK(spec, test, 1, func(fv core.FeatureVector) string {
				name, _ := knn.Predict(fv)
				return name
			})
			b.ReportMetric(ev.Retained*100, "%retained")
		}
	})
}
