package selector

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestWeightedVote: sample weights scale the k-NN vote, and non-positive
// weights mean full weight (zero-value compatibility for live Observe).
func TestWeightedVote(t *testing.T) {
	fv := core.FeatureVector{Rows: 1000, Cols: 1000, NNZ: 12000, AvgNNZPerRow: 12}
	n := TrainSamples([]Sample{
		{FV: fv, Best: "COO", Weight: 0.2},
		{FV: fv, Best: "COO", Weight: 0.2},
		{FV: fv, Best: "ELL", Weight: 1},
	}, 3)
	if name, ok := n.Predict(fv); !ok || name != "ELL" {
		t.Fatalf("weighted vote = %q,%v; want the full-weight ELL to beat two 0.2 COO votes", name, ok)
	}
	n = TrainSamples([]Sample{
		{FV: fv, Best: "COO"},
		{FV: fv, Best: "COO"},
		{FV: fv, Best: "ELL"},
	}, 3)
	if name, ok := n.Predict(fv); !ok || name != "COO" {
		t.Fatalf("unweighted vote = %q,%v; want the 2-1 COO majority", name, ok)
	}
}

// TestWarmLoadAgesExperience: journal replay decays vote weight by record
// age, so a stale measured majority cannot outvote fresh evidence. The
// regime of interest holds two old "COO" wins and one fresh "ELL" win;
// with three half-lives of other regimes' records between them, the fresh
// sample must win the vote it would lose 2-1 at equal weight.
func TestWarmLoadAgesExperience(t *testing.T) {
	dir := t.TempDir()
	st, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fv := core.FeatureVector{Rows: 20000, Cols: 20000, NNZ: 240000, AvgNNZPerRow: 12, SkewCoeff: 9}
	st.AppendExperience(cache.Experience{Device: "host", K: 8, FV: fv, Best: "COO"})
	st.AppendExperience(cache.Experience{Device: "host", K: 8, FV: fv, Best: "COO"})
	for i := 0; i < 3*experienceHalfLife; i++ {
		st.AppendExperience(cache.Experience{Device: "aging-filler", K: 1, FV: fv, Best: "COO"})
	}
	st.AppendExperience(cache.Experience{Device: "host", K: 8, FV: fv, Best: "ELL"})

	lrn := NewLearned()
	if n := lrn.WarmLoad(st); n == 0 {
		t.Fatal("nothing replayed")
	}
	name, ok := lrn.pick("host", 8, fv)
	if !ok || name != "ELL" {
		t.Fatalf("aged pick = %q,%v; want fresh ELL to outvote the stale COO majority", name, ok)
	}
}
