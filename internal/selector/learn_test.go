package selector

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestWeightedVote: sample weights scale the k-NN vote, and non-positive
// weights mean full weight.
func TestWeightedVote(t *testing.T) {
	fv := core.FeatureVector{Rows: 1000, Cols: 1000, NNZ: 12000, AvgNNZPerRow: 12}
	n := TrainSamples([]Sample{
		{FV: fv, Best: "COO", Weight: 0.2},
		{FV: fv, Best: "COO", Weight: 0.2},
		{FV: fv, Best: "HYB", Weight: 1},
	}, 3)
	if name, ok := n.Predict(fv); !ok || name != "HYB" {
		t.Fatalf("weighted vote = %q,%v; want the full-weight HYB to beat two 0.2 COO votes", name, ok)
	}
	n = TrainSamples([]Sample{
		{FV: fv, Best: "COO"},
		{FV: fv, Best: "COO"},
		{FV: fv, Best: "HYB"},
	}, 3)
	if name, ok := n.Predict(fv); !ok || name != "COO" {
		t.Fatalf("unweighted vote = %q,%v; want the 2-1 COO majority", name, ok)
	}
}

// TestVoteAgesExperience: the vote weighs each sample by its age, so a
// stale measured majority cannot outvote fresh evidence. The regime of
// interest holds two old "COO" wins and one fresh "HYB" win on
// near-identical matrices; with three half-lives (3 × 256) of other
// regimes' samples (and any number of sample-less decisions, which do not
// age anything) between them, the fresh sample must win the vote it would
// lose 2-1 at equal weight — in the live cache and in one reopened on its
// journal alike.
func TestVoteAgesExperience(t *testing.T) {
	dir := t.TempDir()
	dc, st := journaled(t, dir)
	fp := uint64(0)
	put := func(device string, k int, d cache.Decision) {
		fp++
		dc.Put(cache.DecisionKey{Fingerprint: fp, Device: device, K: k}, d)
	}
	sample := func(rows int, best string) cache.Decision {
		fv := core.FeatureVector{Rows: rows, Cols: 20000, NNZ: 240000, AvgNNZPerRow: 12, SkewCoeff: 9}
		return cache.Decision{Format: best, Probed: true, FV: fv}
	}
	put("host", 8, sample(20000, "COO"))
	put("host", 8, sample(20001, "COO"))
	for i := 0; i < 3*256; i++ {
		put("aging-filler", 1, sample(30000+i, "COO"))
		put("host", 8, cache.Decision{Format: "COO"}) // model-only: no sample, no aging
	}
	put("host", 8, sample(20002, "HYB"))
	st.Close()

	re, _ := journaled(t, dir)
	for name, c := range map[string]*cache.DecisionCache{"live": dc, "reopened": re} {
		if votes, _ := c.Samples("host", 8); len(votes) != 3 {
			t.Fatalf("%s: host/k=8 votes with %d samples, want 3", name, len(votes))
		}
		if got, ok := vote(c, "host", 8, sample(20000, "").FV); !ok || got != "HYB" {
			t.Errorf("%s: aged pick = %q,%v; want fresh HYB to outvote the stale COO majority", name, got, ok)
		}
	}

	// Re-measuring the oldest matrix supersedes its decision: it becomes the
	// newest measurement and the full-weight vote.
	dc.Put(cache.DecisionKey{Fingerprint: 1, Device: "host", K: 8}, sample(20000, "HYB"))
	votes, weights := dc.Samples("host", 8)
	if len(votes) != 3 || votes[0].Format != "HYB" || weights[0] != 1 {
		t.Fatalf("after a superseding decision the vote reads %+v %v, want the full-weight HYB first of 3", votes, weights)
	}
}
