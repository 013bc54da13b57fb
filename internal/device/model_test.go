package device

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// fvAt builds a square-matrix feature vector at the given footprint with
// otherwise friendly features.
func fvAt(mb, avg, skew float64) core.FeatureVector {
	rows := int(mb * (1 << 20) / (12*avg + 4))
	return core.FeatureVector{
		Rows: rows, Cols: rows,
		NNZ:            int64(float64(rows) * avg),
		MemFootprintMB: mb,
		AvgNNZPerRow:   avg,
		SkewCoeff:      skew,
		CrossRowSim:    0.5,
		AvgNumNeigh:    1.0,
		BWScaled:       0.3,
	}
}

func TestTestbedsComplete(t *testing.T) {
	specs := Testbeds()
	if len(specs) != 9 {
		t.Fatalf("testbeds = %d, want 9 (Table II)", len(specs))
	}
	classes := map[Class]int{}
	for _, s := range specs {
		classes[s.Class]++
		if s.Units <= 0 || s.MemBWGBs <= 0 || s.TDPWatts <= s.IdleWatts {
			t.Errorf("%s: implausible spec %+v", s.Name, s)
		}
		if len(s.Formats) == 0 {
			t.Errorf("%s: no formats", s.Name)
		}
		for _, f := range s.Formats {
			// The FPGA's VSL is priced by its trait estimate alone: the
			// host builds no kernel for it.
			if _, ok := formats.Lookup(f); !ok && !(s.Class == FPGA && f == "VSL") {
				t.Errorf("%s: format %q not in registry", s.Name, f)
			}
		}
	}
	if classes[CPU] != 5 || classes[GPU] != 3 || classes[FPGA] != 1 {
		t.Errorf("class counts = %v, want 5 CPUs, 3 GPUs, 1 FPGA", classes)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Tesla-A100"); !ok {
		t.Error("A100 missing")
	}
	if _, ok := ByName("Tesla-H100"); ok {
		t.Error("found a device that is not in Table II")
	}
	if got := len(Names()); got != 9 {
		t.Errorf("Names() = %d entries", got)
	}
	// "host" resolves too, to the model of this machine, without joining
	// the nine.
	if s, ok := ByName("host"); !ok || s.Name != "host" || len(s.Formats) != len(formats.Registry()) {
		t.Errorf(`ByName("host") = %q with %d formats, %v`, s.Name, len(s.Formats), ok)
	}
}

func TestCPULLCCliff(t *testing.T) {
	// Fig 3: CPU performance drops hard once the footprint exceeds the LLC;
	// the paper reports a gap above 7x for AMD-EPYC-64 (256 MB LLC).
	s, _ := ByName("AMD-EPYC-64")
	small := s.Estimate(fvAt(32, 20, 0), "Naive-CSR")
	large := s.Estimate(fvAt(2048, 20, 0), "Naive-CSR")
	if !small.Feasible || !large.Feasible {
		t.Fatal("estimates infeasible")
	}
	// The paper's 7x contrasts the full small vs large distributions,
	// which include irregular points whose x misses widen the gap; on a
	// single favorable matrix pair the model gives a compressed but still
	// multi-x cliff.
	gap := small.GFLOPS / large.GFLOPS
	if gap < 3.5 {
		t.Errorf("LLC cliff gap = %.2fx, want >= 3.5x", gap)
	}
	if large.Bottleneck != core.BandwidthIntensity {
		t.Errorf("large-matrix bottleneck = %v, want bandwidth", large.Bottleneck)
	}
}

func TestGPUFavorsLargeMatrices(t *testing.T) {
	// Fig 3: the A100 gains up to ~2x from small to large matrices. The
	// paper isolates this with favorable-featured (regular, balanced)
	// matrices — the dark boxplots — since irregularity separately drags
	// large matrices down.
	favorable := func(mb float64) core.FeatureVector {
		fv := fvAt(mb, 20, 0)
		fv.CrossRowSim = 0.95
		fv.AvgNumNeigh = 1.9
		fv.BWScaled = 0.05
		return fv
	}
	s, _ := ByName("Tesla-A100")
	small := s.Estimate(favorable(8), "Bal-CSR")
	large := s.Estimate(favorable(1024), "Bal-CSR")
	gap := large.GFLOPS / small.GFLOPS
	if gap < 1.3 || gap > 4 {
		t.Errorf("GPU large/small gap = %.2fx, want in [1.3, 4]", gap)
	}
}

func TestRowLengthImpact(t *testing.T) {
	// Fig 4: short rows cost ~2x on CPUs and GPUs in their favorable sizes.
	cpu, _ := ByName("AMD-EPYC-64")
	cShort := cpu.Estimate(fvAt(64, 5, 0), "Naive-CSR")
	cLong := cpu.Estimate(fvAt(64, 500, 0), "Naive-CSR")
	if gap := cLong.GFLOPS / cShort.GFLOPS; gap < 1.2 {
		t.Errorf("CPU row-length gap = %.2fx, want >= 1.2x", gap)
	}
	gpu, _ := ByName("Tesla-A100")
	gShort := gpu.Estimate(fvAt(1024, 5, 0), "Bal-CSR")
	gLong := gpu.Estimate(fvAt(1024, 500, 0), "Bal-CSR")
	if gap := gLong.GFLOPS / gShort.GFLOPS; gap < 1.2 {
		t.Errorf("GPU row-length gap = %.2fx, want >= 1.2x", gap)
	}
}

func TestImbalanceByFormatDiscipline(t *testing.T) {
	// Fig 5/7: row-granular formats collapse under skew; merge-path shrugs.
	s, _ := ByName("AMD-EPYC-24")
	balanced := fvAt(64, 20, 0)
	skewed := fvAt(64, 20, 1000)

	naiveDrop := s.Estimate(balanced, "Naive-CSR").GFLOPS / s.Estimate(skewed, "Naive-CSR").GFLOPS
	mergeDrop := s.Estimate(balanced, "Merge-CSR").GFLOPS / s.Estimate(skewed, "Merge-CSR").GFLOPS
	if naiveDrop < 2 {
		t.Errorf("naive CSR skew drop = %.2fx, want >= 2x", naiveDrop)
	}
	if mergeDrop > naiveDrop/2 {
		t.Errorf("merge CSR drop %.2fx should be far below naive %.2fx", mergeDrop, naiveDrop)
	}
	if got := s.Estimate(skewed, "Naive-CSR").Bottleneck; got != core.LoadImbalance {
		t.Errorf("skewed naive bottleneck = %v, want load imbalance", got)
	}

	// The host's lanes claim chunks: an equal-count row partition is only
	// where they start, and skew short of one giant row costs it nothing.
	h := fixtureHost()
	if drop := h.RankMulti(balanced, "Naive-CSR", 1).GFLOPS / h.RankMulti(skewed, "Naive-CSR", 1).GFLOPS; drop > 1.1 {
		t.Errorf("host naive CSR skew drop = %.2fx, want none: lanes drain each other's ranges", drop)
	}
	if got := h.RankMulti(skewed, "Naive-CSR", 1).Bottleneck; got == core.LoadImbalance {
		t.Errorf("host skewed naive bottleneck = %v", got)
	}
	giant := skewed
	giant.SkewCoeff = float64(giant.NNZ) / giant.AvgNNZPerRow // one row holds every nonzero
	if got := h.RankMulti(giant, "Naive-CSR", 1).Bottleneck; got != core.LoadImbalance {
		t.Errorf("host bottleneck under one giant row = %v, want load imbalance", got)
	}
}

func TestIrregularityHurtsGPUMore(t *testing.T) {
	// Fig 6: irregularity costs GPUs up to ~2x on large matrices, CPUs ~1.3x.
	regular := fvAt(512, 20, 0)
	regular.CrossRowSim = 0.95
	regular.AvgNumNeigh = 1.9
	regular.BWScaled = 0.05
	irregular := fvAt(512, 20, 0)
	irregular.CrossRowSim = 0.05
	irregular.AvgNumNeigh = 0.05
	irregular.BWScaled = 0.6

	gpu, _ := ByName("Tesla-A100")
	gGap := gpu.Estimate(regular, "Bal-CSR").GFLOPS / gpu.Estimate(irregular, "Bal-CSR").GFLOPS
	if gGap < 1.4 {
		t.Errorf("GPU irregularity gap = %.2fx, want >= 1.4x", gGap)
	}
	if got := gpu.Estimate(irregular, "Bal-CSR").Bottleneck; got != core.MemoryLatency {
		t.Errorf("irregular GPU bottleneck = %v, want memory latency", got)
	}
}

func TestFPGACeilingAndEfficiency(t *testing.T) {
	// Takeaways 2/3: the FPGA cannot compete on throughput, but on
	// DRAM-bound matrices its GFLOPS/W beats the CPUs and the older GPUs.
	// The dataset-median ranking of Fig. 2b (FPGA first overall) is
	// asserted by the Fig 2 experiment in internal/bench.
	fv := fvAt(1024, 50, 0)
	fpga, _ := ByName("Alveo-U280")
	a100, _ := ByName("Tesla-A100")
	v100, _ := ByName("Tesla-V100")
	epyc, _ := ByName("AMD-EPYC-64")

	fr := fpga.Estimate(fv, "VSL")
	ar := a100.Estimate(fv, "Bal-CSR")
	vr := v100.Estimate(fv, "Bal-CSR")
	er := epyc.Estimate(fv, "Naive-CSR")
	if !fr.Feasible {
		t.Fatal("FPGA estimate infeasible")
	}
	if fr.GFLOPS >= ar.GFLOPS || fr.GFLOPS >= er.GFLOPS {
		t.Errorf("FPGA %.1f GFLOPS should trail the A100 %.1f and the big CPU %.1f",
			fr.GFLOPS, ar.GFLOPS, er.GFLOPS)
	}
	if fr.GFLOPSPerWatt() <= er.GFLOPSPerWatt() {
		t.Errorf("FPGA %.3f GFLOPS/W should beat the big CPU %.3f",
			fr.GFLOPSPerWatt(), er.GFLOPSPerWatt())
	}
	if fr.GFLOPSPerWatt() <= vr.GFLOPSPerWatt() {
		t.Errorf("FPGA %.3f GFLOPS/W should beat the V100 %.3f",
			fr.GFLOPSPerWatt(), vr.GFLOPSPerWatt())
	}
}

func TestFPGACapacityGate(t *testing.T) {
	// Very large matrices overflow the 8 GiB HBM after padding.
	fv := fvAt(6144, 5, 0)
	fpga, _ := ByName("Alveo-U280")
	r := fpga.Estimate(fv, "VSL")
	if r.Feasible {
		t.Error("6 GiB CSR matrix with heavy VSL padding should not fit 8 GiB HBM")
	}
	if r.Reason == "" {
		t.Error("infeasible result must carry a reason")
	}
}

func TestGPUMemoryGate(t *testing.T) {
	p100, _ := ByName("Tesla-P100") // 12 GiB
	huge := fvAt(14336, 50, 0)      // 14 GiB CSR
	if r := p100.Estimate(huge, "Bal-CSR"); r.Feasible {
		t.Error("14 GiB matrix should not fit the P100")
	}
	a100, _ := ByName("Tesla-A100") // 40 GiB
	if r := a100.Estimate(huge, "Bal-CSR"); !r.Feasible {
		t.Error("14 GiB matrix fits the A100")
	}
}

func TestCPUCompetitiveAtMediumSizes(t *testing.T) {
	// Takeaway 4: in 64-256 MB, AMD-EPYC-64 reaches >= ~50% of the A100.
	epyc, _ := ByName("AMD-EPYC-64")
	a100, _ := ByName("Tesla-A100")
	fv := fvAt(128, 50, 0)
	_, ce, ok1 := epyc.BestFormat(fv)
	_, ca, ok2 := a100.BestFormat(fv)
	if !ok1 || !ok2 {
		t.Fatal("best-format search failed")
	}
	ratio := ce.GFLOPS / ca.GFLOPS
	if ratio < 0.3 {
		t.Errorf("EPYC-64 at medium size reaches only %.0f%% of A100, want >= 30%%", ratio*100)
	}
	// And at very large sizes the GPU pulls far ahead.
	lv := fvAt(2048, 50, 0)
	_, le, _ := epyc.BestFormat(lv)
	_, la, _ := a100.BestFormat(lv)
	if le.GFLOPS/la.GFLOPS > 0.5 {
		t.Errorf("at 2 GB the GPU should lead clearly, CPU/GPU = %.2f", le.GFLOPS/la.GFLOPS)
	}
}

func TestBestFormatSkipsInfeasible(t *testing.T) {
	// A device offering ELL and Merge-CSR must fall back to Merge-CSR when
	// extreme skew makes ELL unbuildable.
	s, _ := ByName("AMD-EPYC-24")
	s.Formats = []string{"ELL", "Merge-CSR"}
	fv := fvAt(512, 10, 10000)
	fv.Rows, fv.Cols = 1<<24, 1<<24 // keep the nominal skew feasible shape-wise
	name, r, ok := s.BestFormat(fv)
	if !ok {
		t.Fatal("no feasible format found")
	}
	if name != "Merge-CSR" || !r.Feasible {
		t.Errorf("best = %q, want Merge-CSR fallback", name)
	}
	// The FPGA with only VSL has no fallback at all for oversized matrices.
	fpga, _ := ByName("Alveo-U280")
	if _, _, ok := fpga.BestFormat(fvAt(6144, 5, 0)); ok {
		t.Error("FPGA should have no feasible format for an oversized matrix")
	}
}

func TestEstimateDeterminism(t *testing.T) {
	s, _ := ByName("Tesla-V100")
	fv := fvAt(64, 20, 100)
	a := s.Estimate(fv, "CSR5")
	b := s.Estimate(fv, "CSR5")
	if a != b {
		t.Error("Estimate is not deterministic")
	}
	// Jitter differentiates devices and formats.
	c := s.Estimate(fv, "COO")
	if a.GFLOPS == c.GFLOPS {
		t.Error("different formats produced byte-identical GFLOPS (jitter missing?)")
	}
}

func TestEmptyMatrixInfeasible(t *testing.T) {
	s, _ := ByName("INTEL-XEON")
	if r := s.Estimate(core.FeatureVector{}, "Naive-CSR"); r.Feasible {
		t.Error("empty matrix should be infeasible")
	}
}

func TestPowerWithinEnvelope(t *testing.T) {
	for _, s := range Testbeds() {
		for _, mb := range []float64{8, 256, 1024} {
			for _, f := range s.Formats {
				r := s.Estimate(fvAt(mb, 20, 10), f)
				if !r.Feasible {
					continue
				}
				if r.Watts < s.IdleWatts-1e-9 || r.Watts > s.TDPWatts+1e-9 {
					t.Errorf("%s/%s at %gMB: power %.1fW outside [%.0f, %.0f]",
						s.Name, f, mb, r.Watts, s.IdleWatts, s.TDPWatts)
				}
				if r.GFLOPS <= 0 || math.IsNaN(r.GFLOPS) {
					t.Errorf("%s/%s: bad GFLOPS %g", s.Name, f, r.GFLOPS)
				}
			}
		}
	}
}

func TestModelBelowRoofline(t *testing.T) {
	// Fig 1 sanity: the model must respect each device's roofline within
	// the jitter amplitude.
	for _, s := range Testbeds() {
		if s.Class == FPGA {
			continue // padding-dominated pipeline, CSR roofline not meaningful
		}
		for _, mb := range []float64{8, 128, 1024} {
			fv := fvAt(mb, 20, 0)
			roof := s.Roof().LLCBound(fv)
			for _, f := range s.Formats {
				r := s.Estimate(fv, f)
				if !r.Feasible {
					continue
				}
				if r.GFLOPS > roof*(1+2*jitterAmp) {
					t.Errorf("%s/%s at %gMB: %.1f GFLOPS above LLC roof %.1f",
						s.Name, f, mb, r.GFLOPS, roof)
				}
			}
		}
	}
}

func TestNativeEngineMeasuresRealKernels(t *testing.T) {
	m := matrix.Random(2000, 2000, 0.01, 42)
	e := NativeEngine{Workers: 2, Iterations: 3}
	res := e.Run(m, mustBuilder(t, "Naive-CSR"))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.GFLOPS <= 0 || res.Seconds <= 0 {
		t.Errorf("implausible native result %+v", res)
	}
	for _, b := range formats.Registry() { // every kernel that built passes the verification it is timed behind
		if r := e.Run(m, b); r.Err != nil && !errors.Is(r.Err, formats.ErrBuild) {
			t.Errorf("%s: %v", r.Format, r.Err)
		}
	}
}

// wrongRow is a format whose parallel product is off in one row by far more
// than any accumulation order allows.
type wrongRow struct{ formats.Format }

func (w wrongRow) SpMVParallel(x, y []float64, workers int) {
	w.Format.SpMVParallel(x, y, workers)
	y[len(y)/2] += 1e-6
}

// TestNativeEngineRefusesAWrongKernel: Run verifies the warm-up product
// against the CSR reference and reports a mismatch instead of a rate.
func TestNativeEngineRefusesAWrongKernel(t *testing.T) {
	m := matrix.Random(2000, 2000, 0.01, 42)
	res := NativeEngine{Workers: 2, Iterations: 3}.Run(m, formats.Builder{
		Name:  "wrong",
		Build: func(m *matrix.CSR) (formats.Format, error) { return wrongRow{formats.NewCSR(m)}, nil },
	})
	if res.Err == nil || res.GFLOPS != 0 || res.Seconds != 0 {
		t.Fatalf("a kernel with a wrong row was timed: %+v", res)
	}
	if want := fmt.Sprintf("y[%d]", m.Rows/2); !strings.Contains(res.Err.Error(), want) {
		t.Errorf("error %q does not name %s", res.Err, want)
	}
}

func mustBuilder(t *testing.T, name string) formats.Builder {
	t.Helper()
	b, ok := formats.Lookup(name)
	if !ok {
		t.Fatalf("unknown builder %s", name)
	}
	return b
}

// fixtureHost is a host model with nothing measured in it: two cores, eight
// lanes, and the in-core table this PR's AVX-512 guest reads in its fast
// state (ns per stored entry; see docs/BENCHMARKS.md). Tests that assert
// what the host model concludes run against it, never against a clock.
func fixtureHost() Spec {
	return Host(2, 8, [formats.NumClasses]float64{
		formats.ClassRowSum: 0.81, formats.ClassDotGather: 0.29, formats.ClassSweep: 0.42, formats.ClassLanes: 0.37,
		formats.ClassBlock: 0.27, formats.ClassTile: 1.2, formats.ClassEntry: 1.08,
	})
}

// TestHostSpecSane checks the live host model, measured table included:
// loose bounds any working machine meets, not a performance verdict.
func TestHostSpecSane(t *testing.T) {
	h := HostSpec()
	if h.Units < 1 || len(h.Formats) != len(formats.Registry()) {
		t.Errorf("host spec %+v", h)
	}
	fv := fvAt(16, 20, 2)
	for _, name := range h.Formats {
		if c := formats.EstimateTraits(name, fv).Class; c == formats.ClassNone {
			t.Errorf("%s has no kernel class", name)
		}
	}
	for c := formats.ClassNone + 1; c < formats.NumClasses; c++ {
		if ns := 1 / h.ClassRate[c]; !(ns > 0.05 && ns < 50) {
			t.Errorf("class %v: %.3f ns per entry, want within (0.05, 50)", c, ns)
		}
	}
	if simd.Enabled() && h.ClassRate[formats.ClassRowSum] > h.ClassRate[formats.ClassDotGather] {
		t.Errorf("the sequential row sum (%.3f ns) reads faster than the dispatched dot-gather (%.3f ns)",
			1/h.ClassRate[formats.ClassRowSum], 1/h.ClassRate[formats.ClassDotGather])
	}
	if again := HostSpec(); again.ClassRate != h.ClassRate {
		t.Error("the class table was measured twice in one process")
	}
}

// TestHostNeverRanksScalarCSRAboveInspector is dominance: MKL-IE holds the
// same arrays and moves the same bytes as Naive-/Bal-CSR, and its kernel is
// theirs or a faster one, so no feature point may rank it below them.
func TestHostNeverRanksScalarCSRAboveInspector(t *testing.T) {
	h := fixtureHost()
	for _, fv := range dataset.Medium.Sample(400, 11) {
		ie := h.RankMulti(fv, "MKL-IE", 1).GFLOPS
		for _, name := range []string{"Naive-CSR", "Bal-CSR"} {
			if g := h.RankMulti(fv, name, 1).GFLOPS; g > ie {
				t.Fatalf("%s ranks above MKL-IE (%.3f > %.3f GFLOP/s) at %+v", name, g, ie, fv)
			}
		}
	}
}
