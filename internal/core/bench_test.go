package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

var sink core.FeatureVector

// BenchmarkExtract times exact feature extraction and the sampled estimate
// Auto reads on the matrices of four benchmark recipes, and reports both in
// nanoseconds per nonzero of the full matrix.
func BenchmarkExtract(b *testing.B) {
	// The recipes of benchmark/workloads.go (tier, and denseRows for
	// serve-batch) at seed 1.
	tier := gen.Params{SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 1}
	for _, bc := range []struct {
		name  string
		rows  int
		avg   float64
		dense bool
	}{
		{"lib-stream", 420000, 20, false},
		{"serve-batch", 3000, 1000, true},
		{"serve-update", 2500, 64, false},
		{"lib-small", 8000, 10, false},
	} {
		p := tier
		p.Rows, p.Cols, p.AvgNNZPerRow, p.StdNNZPerRow = bc.rows, bc.rows, bc.avg, 0.25*bc.avg
		if bc.dense {
			p.BWScaled, p.SkewCoeff = 1, 0.5
		}
		m, err := gen.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range []struct {
			name    string
			extract func(*matrix.CSR) core.FeatureVector
		}{{"Extract", core.Extract}, {"Estimate", core.Estimate}} {
			b.Run(bc.name+"/"+f.name, func(b *testing.B) {
				for range b.N {
					sink = f.extract(m)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
			})
		}
	}
}
