package selector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/formats"
)

func epyc(t *testing.T) device.Spec {
	t.Helper()
	s, ok := device.ByName("AMD-EPYC-24")
	if !ok {
		t.Fatal("missing testbed")
	}
	return s
}

func TestRulesPicksAvailableFormats(t *testing.T) {
	for _, spec := range device.Testbeds() {
		for _, fv := range dataset.Small.Sample(50, 3) {
			name := Rules(spec, fv)
			found := false
			for _, f := range spec.Formats {
				if f == name {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: rules picked %q, not offered by the device", spec.Name, name)
			}
		}
	}
}

func TestRulesEncodeTakeaways(t *testing.T) {
	s := epyc(t)
	skewed := dataset.Point(128, 20, 10000, 0.5, 0.5, 0.3)
	if got := Rules(s, skewed); got != "Merge-CSR" {
		t.Errorf("skewed pick = %q, want Merge-CSR (item-granular first)", got)
	}
	clustered := dataset.Point(512, 50, 0, 0.9, 1.9, 0.3)
	if got := Rules(s, clustered); got != "SparseX" {
		t.Errorf("large clustered pick = %q, want SparseX", got)
	}
	longRows := dataset.Point(64, 100, 0, 0.5, 1.0, 0.3)
	if got := Rules(s, longRows); got != "SELL-C-s" {
		t.Errorf("long balanced rows pick = %q, want SELL-C-s", got)
	}
}

func TestRulesRetainPerformance(t *testing.T) {
	s := epyc(t)
	points := dataset.Medium.Sample(600, 5)
	ev := EvaluateK(s, points, 1, func(fv core.FeatureVector) string { return Rules(s, fv) })
	if ev.N < 500 {
		t.Fatalf("evaluated only %d points", ev.N)
	}
	if ev.Retained < 0.80 {
		t.Errorf("rules retain %.1f%% of best performance, want >= 80%%", ev.Retained*100)
	}
}

func TestNearestBeatsRules(t *testing.T) {
	s := epyc(t)
	train := dataset.Medium.Sample(1500, 7)
	test := dataset.Medium.Sample(400, 11)
	knn := TrainK(s, train, 5, 1)
	if knn.Len() == 0 {
		t.Fatal("empty training set")
	}
	evKNN := EvaluateK(s, test, 1, func(fv core.FeatureVector) string {
		name, _ := knn.Predict(fv)
		return name
	})
	evRules := EvaluateK(s, test, 1, func(fv core.FeatureVector) string { return Rules(s, fv) })
	if evKNN.Retained < evRules.Retained-0.02 {
		t.Errorf("k-NN retains %.3f, rules %.3f; k-NN should be at least comparable",
			evKNN.Retained, evRules.Retained)
	}
	if evKNN.Retained < 0.90 {
		t.Errorf("k-NN retains %.1f%%, want >= 90%% (competitive with the literature)",
			evKNN.Retained*100)
	}
	if evKNN.RetainedP10 <= 0 {
		t.Error("10th percentile retained should be positive")
	}
}

func TestNearestEmptyAndTies(t *testing.T) {
	empty := TrainSamples(nil, 3)
	if _, ok := empty.Predict(core.FeatureVector{}); ok {
		t.Error("empty selector should report not-ok")
	}
	tied := TrainSamples([]Sample{
		{FV: core.FeatureVector{MemFootprintMB: 1}, Best: "B"},
		{FV: core.FeatureVector{MemFootprintMB: 2}, Best: "A"},
	}, 2)
	name, ok := tied.Predict(core.FeatureVector{MemFootprintMB: 1.5})
	if !ok || name != "A" {
		t.Errorf("tie should break lexicographically: got %q", name)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	s := epyc(t)
	ev := EvaluateK(s, nil, 1, func(core.FeatureVector) string { return "Naive-CSR" })
	if ev.N != 0 || ev.Retained != 0 {
		t.Errorf("empty evaluation should be zero: %+v", ev)
	}
}

func TestTrainReportsDroppedPoints(t *testing.T) {
	s := epyc(t)
	points := dataset.Small.Sample(20, 3)
	labelable := len(points)
	// Unlabelable points: empty matrices have no feasible format.
	points = append(points, core.FeatureVector{}, core.FeatureVector{Rows: 10, Cols: 10})
	knn := TrainK(s, points, 3, 1)
	if knn.Len() != labelable {
		t.Errorf("Len() = %d, want the %d labelable points", knn.Len(), labelable)
	}
}

func TestRetainedP10SmallTestSets(t *testing.T) {
	s := epyc(t)
	// 3 points (< 10): RetainedP10 must be the minimum retained value,
	// not a silent alias of a higher percentile.
	points := dataset.Small.Sample(3, 5)
	if len(points) != 3 {
		t.Fatalf("sampled %d points, want 3", len(points))
	}
	// Predict the worst feasible format for the first point only, so the
	// retained values are not all equal.
	worst := func(fv core.FeatureVector) string {
		name, g := "", -1.0
		for _, f := range s.Formats {
			r := s.Estimate(fv, f)
			if r.Feasible && (g < 0 || r.GFLOPS < g) {
				name, g = f, r.GFLOPS
			}
		}
		return name
	}
	first := true
	ev := EvaluateK(s, points, 1, func(fv core.FeatureVector) string {
		if first {
			first = false
			return worst(fv)
		}
		name, _, _ := s.BestFormat(fv)
		return name
	})
	if ev.N == 0 {
		t.Fatal("nothing evaluated")
	}
	if ev.RetainedP10 > ev.Retained {
		t.Errorf("P10 %.3f above mean %.3f on a 3-point set — must report the minimum", ev.RetainedP10, ev.Retained)
	}
}

func TestRulesKPrefersFusedFormats(t *testing.T) {
	for _, spec := range device.Testbeds() {
		for _, fv := range dataset.Small.Sample(40, 17) {
			name := RulesK(spec, fv, 8)
			offered := false
			for _, f := range spec.Formats {
				if f == name {
					offered = true
				}
			}
			if !offered {
				t.Fatalf("%s: RulesK picked %q, not offered", spec.Name, name)
			}
			// When the device offers any fused format from the decision
			// list, the k=8 pick must be fused.
			order := rulesOrder(fv)
			hasFused := pickFrom(spec, order, formats.FusedMulti) != ""
			if hasFused && !formats.FusedMulti(name) {
				t.Fatalf("%s fv=%s: RulesK(8) picked fallback %q with fused options available",
					spec.Name, fv, name)
			}
		}
	}
	// k=1 must be exactly Rules.
	s := epyc(t)
	for _, fv := range dataset.Small.Sample(40, 23) {
		if RulesK(s, fv, 1) != Rules(s, fv) {
			t.Fatal("RulesK(1) must equal Rules")
		}
	}
}
