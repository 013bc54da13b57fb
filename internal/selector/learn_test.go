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

// TestWarmLoadAgesExperience: journal replay decays vote weight by sample
// age, so a stale measured majority cannot outvote fresh evidence. The
// regime of interest holds two old "COO" wins and one fresh "ELL" win on
// near-identical matrices; with three half-lives of other regimes' samples
// (and any number of sample-less decisions, which do not age anything)
// between them, the fresh sample must win the vote it would lose 2-1 at
// equal weight.
func TestWarmLoadAgesExperience(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fp := uint64(0)
	put := func(device string, k int, d cache.Decision) {
		fp++
		st.AppendDecision(cache.DecisionKey{Fingerprint: fp, Device: device, K: k, Shards: 1}, d)
	}
	sample := func(rows int, best string) cache.Decision {
		fv := core.FeatureVector{Rows: rows, Cols: 20000, NNZ: 240000, AvgNNZPerRow: 12, SkewCoeff: 9}
		return cache.Decision{Format: best, Probed: true, FV: fv}
	}
	put("host", 8, sample(20000, "COO"))
	put("host", 8, sample(20001, "COO"))
	for i := 0; i < 3*experienceHalfLife; i++ {
		put("aging-filler", 1, sample(30000+i, "COO"))
		put("host", 8, cache.Decision{Format: "COO"}) // model-only: no sample, no aging
	}
	put("host", 8, sample(20002, "ELL"))

	lrn := NewLearned()
	if n := lrn.WarmLoad(st); n != 3*experienceHalfLife+3 {
		t.Fatalf("replayed %d samples, want %d (one per sample-carrying decision)", n, 3*experienceHalfLife+3)
	}
	if got := lrn.Len("host", 8); got != 3 {
		t.Fatalf("host/k=8 holds %d samples, want 3", got)
	}
	name, ok := lrn.pick("host", 8, sample(20000, "").FV)
	if !ok || name != "ELL" {
		t.Fatalf("aged pick = %q,%v; want fresh ELL to outvote the stale COO majority", name, ok)
	}

	// Re-measuring the oldest matrix supersedes its decision, which moves to
	// the end of the order: on the next replay it is the freshest vote.
	st.AppendDecision(cache.DecisionKey{Fingerprint: 1, Device: "host", K: 8, Shards: 1}, sample(20000, "HYB"))
	lrn = NewLearned()
	lrn.WarmLoad(st)
	if got := lrn.Len("host", 8); got != 3 {
		t.Fatalf("after a superseding decision host/k=8 holds %d samples, want 3", got)
	}
	n := lrn.regime("host", 8)
	if last := n.samples[len(n.samples)-1]; last.Best != "HYB" || last.Weight != 1 {
		t.Fatalf("superseding decision replayed as %+v, want the full-weight newest sample", last)
	}
}
