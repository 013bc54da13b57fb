package selector

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
)

func genMatrix(t *testing.T, rows int, avg, skew float64, seed int64) *matrix.CSR {
	t.Helper()
	m, err := gen.Generate(gen.Params{
		Rows: rows, Cols: rows,
		AvgNNZPerRow: avg, StdNNZPerRow: avg * 0.3,
		SkewCoeff: skew, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 0.9,
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return m
}

// TestBuildAutoEquivalence checks the contract that matters to users: the
// Auto format computes exactly what building its chosen format directly
// would compute, at every k.
func TestBuildAutoEquivalence(t *testing.T) {
	for _, skew := range []float64{0, 50, 2000} {
		m := genMatrix(t, 4000, 10, skew, 21)
		for _, k := range []int{1, 4, 8} {
			a, err := BuildAuto(m, AutoOptions{K: k, NoCache: true})
			if err != nil {
				t.Fatalf("skew=%g k=%d: %v", skew, k, err)
			}
			b, ok := formats.Lookup(a.Chosen())
			if !ok {
				t.Fatalf("chose unknown format %q", a.Chosen())
			}
			direct, err := b.Build(m)
			if err != nil {
				t.Fatalf("direct build of chosen %s: %v", a.Chosen(), err)
			}
			x := matrix.RandomVector(m.Cols*k, 3)
			yA := make([]float64, m.Rows*k)
			yD := make([]float64, m.Rows*k)
			a.MultiplyMany(yA, x, k)
			direct.MultiplyMany(yD, x, k)
			for i := range yA {
				if yA[i] != yD[i] {
					t.Fatalf("skew=%g k=%d: Auto diverges from %s at %d", skew, k, a.Chosen(), i)
				}
			}
		}
	}
}

func TestBuildAutoDegenerate(t *testing.T) {
	// Empty matrix: no format is model-feasible; Auto must still build
	// (CSR fallback) and multiply to zeros.
	empty, err := matrix.NewCSR(3, 3, []int32{0, 0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildAuto(empty, AutoOptions{NoCache: true})
	if err != nil {
		t.Fatalf("empty matrix: %v", err)
	}
	y := []float64{1, 2, 3}
	a.SpMV([]float64{1, 1, 1}, y)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("empty product y[%d] = %g", i, v)
		}
	}

	// Single row holding every nonzero.
	single, err := matrix.NewCSR(1, 5, []int32{0, 3}, []int32{0, 2, 4}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err = BuildAuto(single, AutoOptions{K: 8, NoCache: true})
	if err != nil {
		t.Fatalf("single row: %v", err)
	}
	x := matrix.RandomVector(5*8, 1)
	yk := make([]float64, 1*8)
	a.MultiplyMany(yk, x, 8)

	// Heavy skew: one giant row among short ones.
	skewed := genMatrix(t, 3000, 6, 400, 4)
	a, err = BuildAuto(skewed, AutoOptions{K: 8, Probe: true, NoCache: true})
	if err != nil {
		t.Fatalf("heavy skew: %v", err)
	}
	if a.Chosen() == "" {
		t.Fatal("no format chosen")
	}
}

func TestBuildAutoCachesDecision(t *testing.T) {
	m := genMatrix(t, 3000, 10, 5, 8)
	dc := cache.NewDecisionCache()
	a1, err := BuildAuto(m, AutoOptions{K: 8, Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Choice().Cached {
		t.Error("first build should not be a cache hit")
	}
	if dc.Len() != 1 {
		t.Fatalf("cache holds %d decisions, want 1", dc.Len())
	}
	a2, err := BuildAuto(m, AutoOptions{K: 8, Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Choice().Cached {
		t.Error("second build should hit the decision cache")
	}
	if a2.Chosen() != a1.Chosen() {
		t.Errorf("cached decision %q != original %q", a2.Chosen(), a1.Chosen())
	}
	// A different k is a different regime and must not share the entry.
	a3, err := BuildAuto(m, AutoOptions{K: 1, Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if a3.Choice().Cached {
		t.Error("k=1 must not hit the k=8 decision")
	}
	if dc.Len() != 2 {
		t.Errorf("cache holds %d decisions, want 2", dc.Len())
	}
}

func TestBuildAutoUnknownDevice(t *testing.T) {
	m := genMatrix(t, 1000, 8, 0, 2)
	if _, err := BuildAuto(m, AutoOptions{Device: "no-such-testbed"}); err == nil {
		t.Fatal("unknown device should error")
	}
}

// TestBuildAutoHostByName: naming "host" is the default device, one
// decision key, so the unnamed build after it is a cache hit.
func TestBuildAutoHostByName(t *testing.T) {
	m := genMatrix(t, 1000, 8, 0, 2)
	dc := cache.NewDecisionCache()
	named, err := BuildAuto(m, AutoOptions{Device: "host", Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	unnamed, err := BuildAuto(m, AutoOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if c := unnamed.Choice(); !c.Cached || c.Device != named.Choice().Device || dc.Len() != 1 {
		t.Errorf("Device %q then unnamed: cached=%v, devices %q/%q, %d decisions", "host", c.Cached, named.Choice().Device, c.Device, dc.Len())
	}
}

func TestBuildAutoDeviceRestrictsChoice(t *testing.T) {
	m := genMatrix(t, 2000, 10, 0, 3)
	a, err := BuildAuto(m, AutoOptions{Device: "Alveo-U280", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// The FPGA offers only VSL, which the host prices but cannot build:
	// the choice lands on the CSR build fallback.
	if got := a.Chosen(); got != "Naive-CSR" || a.Choice().Shortlist[0] != "VSL" {
		t.Errorf("Alveo choice = %q from %v, want the CSR fallback behind VSL", got, a.Choice().Shortlist)
	}
}

// TestBuildAutoConcurrent exercises the decision cache and the built
// kernels from concurrent goroutines; run with -race.
func TestBuildAutoConcurrent(t *testing.T) {
	m := genMatrix(t, 6000, 10, 20, 13)
	dc := cache.NewDecisionCache()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := 1 + (g%2)*7 // alternate k=1 and k=8
			a, err := BuildAuto(m, AutoOptions{K: k, Cache: dc})
			if err != nil {
				errs <- err
				return
			}
			x := matrix.RandomVector(m.Cols*k, int64(g))
			y := make([]float64, m.Rows*k)
			a.MultiplyMany(y, x, k)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dc.Len() > 2 {
		t.Errorf("cache holds %d decisions for 2 regimes", dc.Len())
	}
}

func TestProbePicksAWinner(t *testing.T) {
	m := genMatrix(t, 20000, 12, 10, 5)
	winner, _, ns := probe(context.Background(), m, []string{"Naive-CSR", "MKL-IE", "SELL-C-s"}, 1)
	if winner == "" {
		t.Fatal("probe found no winner")
	}
	if len(ns) != 3 {
		t.Fatalf("probe measured %v, want all 3 candidates", ns)
	}
	for name, v := range ns {
		if v <= 0 || v < ns[winner] {
			t.Errorf("%s: %v ns, winner %s %v ns: non-positive, or faster than the winner", name, v, winner, ns[winner])
		}
	}
}

// fixtureHost is device's test fixture again (test files do not export):
// two cores, eight lanes, the in-core table of docs/BENCHMARKS.md, no clock.
func fixtureHost() device.Spec {
	return device.Host(2, 8, [formats.NumClasses]float64{
		formats.ClassRowSum: 0.81, formats.ClassDotGo: 0.96, formats.ClassDotGather: 0.29, formats.ClassSweep: 0.42, formats.ClassLanes: 0.37,
		formats.ClassBlock: 0.27, formats.ClassTile: 1.2, formats.ClassEntry: 1.08,
	})
}

// benchmarkFVs are core.Extract of benchmark/'s five matrices at seed 1.
var benchmarkFVs = map[string]core.FeatureVector{
	"lib-stream":   {Rows: 420000, Cols: 420000, NNZ: 8400000, MemFootprintMB: 97.73254776000977, AvgNNZPerRow: 20, SkewCoeff: 4.8, CrossRowSim: 0.4945103290346161, AvgNumNeigh: 0.8606733333333333, BWScaled: 0.1931906460941043},
	"lib-small":    {Rows: 8000, Cols: 8000, NNZ: 80000, MemFootprintMB: 0.9460487365722656, AvgNNZPerRow: 10, SkewCoeff: 4.6, CrossRowSim: 0.4909426571707202, AvgNumNeigh: 0.814425, BWScaled: 0.168681109375},
	"serve-batch":  {Rows: 3000, Cols: 3000, NNZ: 3000000, MemFootprintMB: 34.34372329711914, AvgNNZPerRow: 1000, SkewCoeff: 1.232, CrossRowSim: 0.7703501267797331, AvgNumNeigh: 1.1709926666666666, BWScaled: 0.97457},
	"serve-wide":   {Rows: 50000, Cols: 50000, NNZ: 250000, MemFootprintMB: 3.0517616271972656, AvgNNZPerRow: 5, SkewCoeff: 4.6, CrossRowSim: 0.4703621512928838, AvgNumNeigh: 0.723304, BWScaled: 0.126227626},
	"serve-update": {Rows: 2500, Cols: 2500, NNZ: 160000, MemFootprintMB: 1.8405952453613281, AvgNNZPerRow: 64, SkewCoeff: 4.421875, CrossRowSim: 0.5403254989758858, AvgNumNeigh: 1.0267625, BWScaled: 0.21721664000000002},
}

// TestHostShortlistsVectorizedFusedFormats: on the five benchmark matrices a
// host whose table says what its kernels cost puts a vectorized format with
// a fused k > 1 kernel first, and never hosts the long-row matrix behind a
// sequential-sum kernel because the memory term tied.
func TestHostShortlistsVectorizedFusedFormats(t *testing.T) {
	h := fixtureHost()
	for name, fv := range benchmarkFVs {
		sl := Shortlist(h, fv, 1, DefaultShortlist)
		if c := formats.EstimateTraits(sl[0], fv).Class; !c.Vectorized() || !formats.FusedMulti(sl[0]) {
			t.Errorf("%s: shortlist %v opens with a %v kernel, fused %v", name, sl, c, formats.FusedMulti(sl[0]))
		}
	}
	if sl := Shortlist(h, benchmarkFVs["serve-batch"], 1, DefaultShortlist); slices.Contains([]string{"Naive-CSR", "COO", "Merge-CSR"}, sl[0]) {
		t.Errorf("serve-batch: shortlist %v opens with a scalar kernel", sl)
	}
}

// TestBuildAutoRanksForTheHostModel drives the same through BuildAuto, the
// host model pinned at the seam.
func TestBuildAutoRanksForTheHostModel(t *testing.T) {
	defer func(prev func() device.Spec) { hostSpec = prev }(hostSpec)
	hostSpec = fixtureHost
	m := genMatrix(t, 2500, 64, 4, 3)
	a, err := BuildAuto(m, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := Shortlist(fixtureHost(), core.Extract(m), 1, DefaultShortlist)
	if c := a.Choice(); a.Chosen() != want[0] || !slices.Equal(c.Shortlist, want) || c.Device != "host" {
		t.Errorf("chose %s from %v for %s, want the fixture's ranking %v", a.Chosen(), c.Shortlist, c.Device, want)
	}
	if !a.Traits().Class.Vectorized() || !formats.FusedMulti(a.Chosen()) {
		t.Errorf("hosted behind %s", a.Chosen())
	}
}

// TestTiesBreakByPreferenceNotAlphabet: estimates within tieMargin of the
// best are ordered fused first, then smaller, then inspector, then name.
func TestTiesBreakByPreferenceNotAlphabet(t *testing.T) {
	fv := benchmarkFVs["serve-update"]
	if !prefer(fv, "MKL-IE", "Bal-CSR") || !prefer(fv, "MKL-IE", "Vec-CSR") || prefer(fv, "CSR5", "Naive-CSR") || !prefer(fv, "Naive-CSR", "SELL-C-s") {
		t.Error("prefer: want fused before by-column, fewer bytes next, inspector before plain")
	}
	// On the five benchmark matrices at k = 1 and 8 the host's shortlist
	// holds DefaultShortlist registry formats with different kernel
	// classes, so a probe never times one kernel under two names, and
	// MKL-IE opens every one.
	for name, bfv := range benchmarkFVs {
		for _, k := range []int{1, 8} {
			sl := Shortlist(fixtureHost(), bfv, k, DefaultShortlist)
			seen := map[formats.KernelClass]bool{}
			for _, f := range sl {
				c := formats.EstimateTraits(f, bfv).Class
				if _, ok := formats.Lookup(f); !ok || seen[c] {
					t.Errorf("%s k=%d: shortlist %v: %q has no kernel or repeats kernel class %d", name, k, sl, f, c)
				}
				seen[c] = true
			}
			if len(sl) < DefaultShortlist || sl[0] != "MKL-IE" {
				t.Errorf("%s k=%d: shortlist %v, want %d formats opened by MKL-IE", name, k, sl, DefaultShortlist)
			}
		}
	}
	// Equal distances and equal votes fall to the same order.
	n := TrainSamples([]Sample{{FV: fv, Best: "Bal-CSR"}, {FV: fv, Best: "MKL-IE"}}, 2)
	if got, _ := n.Predict(fv); got != "MKL-IE" {
		t.Errorf("tied vote went to %s, want MKL-IE", got)
	}
}

func TestShortlistRanksAndIncludesRules(t *testing.T) {
	s := epyc(t)
	fv := dataset.Point(128, 20, 10, 0.5, 0.9, 0.3)
	for _, k := range []int{1, 8} {
		sl := Shortlist(s, fv, k, 3)
		if len(sl) < 3 {
			t.Fatalf("k=%d: shortlist %v too short", k, sl)
		}
		// Best-first: the noise-free ranking estimates must be
		// non-increasing over the ranked prefix but for the order prefer
		// gives the estimates within tieMargin of the best (the appended
		// RulesK pick may rank anywhere).
		prev := s.RankMulti(fv, sl[0], k).GFLOPS
		for _, name := range sl[1:3] {
			g := s.RankMulti(fv, name, k).GFLOPS
			if g > prev/(1-tieMargin) {
				t.Errorf("k=%d: shortlist not ranked: %v", k, sl)
			}
			prev = g
		}
		ruled := RulesK(s, fv, k)
		found := false
		for _, name := range sl {
			if name == ruled {
				found = true
			}
		}
		if !found && s.RankMulti(fv, ruled, k).Feasible {
			t.Errorf("k=%d: shortlist %v misses the rules pick %q", k, sl, ruled)
		}
	}
}

// TestHostShortlistIsNative: over a sample of the medium grid at k = 1 and
// k = 8, every name the host shortlists — the model's top three and the
// appended rules pick — has a kernel to build.
func TestHostShortlistIsNative(t *testing.T) {
	h := fixtureHost()
	for _, fv := range dataset.Medium.Sample(400, 7) {
		for _, k := range []int{1, 8} {
			for _, name := range Shortlist(h, fv, k, DefaultShortlist) {
				if _, ok := formats.Lookup(name); !ok {
					t.Fatalf("k=%d %+v: shortlisted %q has no kernel", k, fv, name)
				}
			}
		}
	}
}
