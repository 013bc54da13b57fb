package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

var sink core.FeatureVector

// BenchmarkExtract times feature extraction on the matrices of three
// benchmark recipes and reports the cost per nonzero.
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
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				sink = core.Extract(m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
		})
	}
}
