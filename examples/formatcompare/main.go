// Format comparison on matrices with deliberately different structure:
// balanced/banded, skewed, clustered and hypersparse. Measures real kernels
// on the host CPU and shows that no format wins everywhere (the paper's
// Takeaway 6), then explains each winner through the structural traits.
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/device"
	"repro/internal/gen"

	spmv "repro"
)

type workload struct {
	name string
	p    gen.Params
}

func main() {
	base := gen.Params{Rows: 120000, Cols: 120000, AvgNNZPerRow: 16,
		StdNNZPerRow: 5, BWScaled: 0.2, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 7}

	workloads := []workload{
		{"balanced-banded", with(base, func(p *gen.Params) { p.BWScaled = 0.02; p.AvgNumNeigh = 1.6 })},
		{"heavily-skewed", with(base, func(p *gen.Params) { p.SkewCoeff = 2000 })},
		{"clustered-rows", with(base, func(p *gen.Params) { p.AvgNumNeigh = 1.9; p.CrossRowSim = 0.9 })},
		{"hypersparse", with(base, func(p *gen.Params) { p.AvgNNZPerRow = 3; p.StdNNZPerRow = 1 })},
	}

	engine := device.NativeEngine{Workers: runtime.GOMAXPROCS(0), Iterations: 12}
	for _, w := range workloads {
		m, err := gen.Generate(w.p)
		if err != nil {
			log.Fatal(err)
		}
		fv := spmv.Extract(m)
		fmt.Printf("== %s: %s\n   skew=%.0f sim=%.2f neigh=%.2f\n",
			w.name, m, fv.SkewCoeff, fv.CrossRowSim, fv.AvgNumNeigh)

		bestName, bestPerf := "", 0.0
		for _, res := range engine.RunAll(m) {
			if res.Err != nil {
				fmt.Printf("   %-10s no rate (%v)\n", res.Format, shortErr(res.Err))
				continue
			}
			marker := ""
			if res.GFLOPS > bestPerf {
				bestName, bestPerf = res.Format, res.GFLOPS
				marker = " *"
			}
			fmt.Printf("   %-10s %7.3f GFLOPS%s\n", res.Format, res.GFLOPS, marker)
		}
		fmt.Printf("   winner: %s (%.3f GFLOPS)\n\n", bestName, bestPerf)
	}
	fmt.Println("Different structures crown different formats — exactly the paper's Takeaway 6.")
}

func with(p gen.Params, mutate func(*gen.Params)) gen.Params {
	mutate(&p)
	return p
}

func shortErr(err error) string {
	s := err.Error()
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
