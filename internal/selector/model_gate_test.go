package selector

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// retainedGate is the competitive threshold from the format-selection
// literature (see the package comment): Auto must retain at least this
// mean fraction of exhaustive-search performance per k-regime.
const retainedGate = 0.90

// TestModelSelectorRetainedGateK verifies the deterministic half of the
// accuracy gate: on the device model, the trained selector must retain
// >= 90% of exhaustive-search performance in BOTH RHS regimes — the k = 8
// ordering differs from k = 1 (fused kernels promoted), so a selector
// trained on the wrong regime would fail here.
func TestModelSelectorRetainedGateK(t *testing.T) {
	s := epyc(t)
	train := dataset.Medium.Sample(1500, 7)
	test := dataset.Medium.Sample(400, 11)
	for _, k := range []int{1, 8} {
		knn := TrainK(s, train, 5, k)
		if knn.Len() == 0 {
			t.Fatalf("k=%d: empty training set (%d dropped)", k, knn.Dropped())
		}
		ev := EvaluateK(s, test, k, func(fv core.FeatureVector) string {
			name, _ := knn.Predict(fv)
			return name
		})
		if ev.Retained < retainedGate {
			t.Errorf("k=%d: trained selector retains %.3f, gate is %.2f", k, ev.Retained, retainedGate)
		}
	}
}

// TestModelRegimesDiffer pins the reason the selection subsystem is
// k-aware at all: the model's best format must differ between k = 1 and
// k = 8 on a meaningful share of the feature space (fallback formats hold
// their k = 1 rank, fused ones overtake them).
func TestModelRegimesDiffer(t *testing.T) {
	s := epyc(t)
	points := dataset.Medium.Sample(400, 19)
	differ, n := 0, 0
	for _, fv := range points {
		n1, _, ok1 := s.BestFormatK(fv, 1)
		n8, _, ok8 := s.BestFormatK(fv, 8)
		if !ok1 || !ok8 {
			continue
		}
		n++
		if n1 != n8 {
			differ++
		}
	}
	if n == 0 {
		t.Fatal("no labelable points")
	}
	if differ == 0 {
		t.Error("k=1 and k=8 agree everywhere; the RHS axis is inert")
	}
}
