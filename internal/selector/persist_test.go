package selector

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/matrix"
)

// TestPersistRoundTripZeroProbes is the satellite acceptance test: a full
// save -> restart -> load cycle must reproduce identical decisions with
// zero micro-probes. "Restart" is simulated with fresh DecisionCache and
// Store instances over the same directory — exactly what a new process
// does.
func TestPersistRoundTripZeroProbes(t *testing.T) {
	dir := t.TempDir()
	mats := []*matrix.CSR{
		genMatrix(t, 20000, 12, 10, 5),
		genMatrix(t, 24000, 8, 200, 6),
		genMatrix(t, 18000, 30, 0, 7),
	}

	// Cold process: probe-backed decisions, journaled.
	st1, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dc1 := cache.NewDecisionCache()
	dc1.AttachStore(st1)
	var cold []string
	for _, m := range mats {
		for _, k := range []int{1, 8} {
			a, err := BuildAuto(m, AutoOptions{K: k, Probe: true, State: &State{Cache: dc1}, NoLearn: true})
			if err != nil {
				t.Fatal(err)
			}
			if a.Choice().Cached {
				t.Fatal("cold build must not be a cache hit")
			}
			cold = append(cold, a.Chosen())
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm process: same directory, fresh in-memory state.
	st2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	dc2 := cache.NewDecisionCache()
	if n := dc2.AttachStore(st2); n != len(cold) {
		t.Fatalf("warm-loaded %d decisions, want %d", n, len(cold))
	}
	probesBefore := ProbeCount()
	i := 0
	for _, m := range mats {
		for _, k := range []int{1, 8} {
			a, err := BuildAuto(m, AutoOptions{K: k, Probe: true, State: &State{Cache: dc2}, NoLearn: true})
			if err != nil {
				t.Fatal(err)
			}
			if !a.Choice().Cached {
				t.Errorf("matrix %d k=%d: warm build missed the persistent cache", i/2, k)
			}
			if a.Chosen() != cold[i] {
				t.Errorf("matrix %d k=%d: warm decision %q != cold %q", i/2, k, a.Chosen(), cold[i])
			}
			i++
		}
	}
	if got := ProbeCount() - probesBefore; got != 0 {
		t.Errorf("warm restart ran %d micro-probes, want 0", got)
	}
}

// TestLearnedExperiencePersists: probe outcomes recorded in one "process"
// — as the sample on the decision they backed — must warm-load into the
// experience base of the next.
func TestLearnedExperiencePersists(t *testing.T) {
	dir := t.TempDir()
	st1, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dc1 := cache.NewDecisionCache()
	dc1.AttachStore(st1)
	m := genMatrix(t, 20000, 12, 10, 9)
	a, err := BuildAuto(m, AutoOptions{K: 8, Probe: true, State: &State{Cache: dc1, Learned: NewLearned()}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Choice().Probed {
		t.Skip("probe skipped (matrix under probe floor); nothing to persist")
	}
	st1.Close()

	st2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	keys, decs := st2.Decisions()
	if len(decs) != 1 || decs[0].FV != core.Extract(m) {
		t.Fatalf("probe outcome not journaled as the decision's sample: %+v", decs)
	}
	if keys[0].K != 8 || decs[0].Format != a.Chosen() || !decs[0].Probed {
		t.Errorf("journaled %+v %+v, want probed winner %q at k=8", keys[0], decs[0], a.Chosen())
	}
	lrn := NewLearned()
	if n := lrn.WarmLoad(st2); n != 1 {
		t.Fatalf("WarmLoad replayed %d, want 1", n)
	}
	if lrn.Len(keys[0].Device, 8) != 1 {
		t.Error("experience base empty after warm-load")
	}
	// The warmed base steers a fresh (uncached, unprobed) decision on the
	// same matrix to the measured winner.
	fresh, err := BuildAuto(m, AutoOptions{K: 8, NoCache: true, State: &State{Learned: lrn}})
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Choice().Learned {
		t.Error("learned experience did not steer the shortlist")
	}
	if fresh.Chosen() != a.Chosen() {
		t.Errorf("learned pick %q != measured winner %q", fresh.Chosen(), a.Chosen())
	}
}

// TestOneDecisionOneSample: however often one matrix is decided — cold,
// from the cache, or around it with NoCache — selection remembers one
// thing for it: one live journal line, one sample in the k-NN vote now and
// one after a restart.
func TestOneDecisionOneSample(t *testing.T) {
	dir := t.TempDir()
	st, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := &State{Cache: cache.NewDecisionCache(), Learned: NewLearned()}
	state.Cache.AttachStore(st)
	m := genMatrix(t, 20000, 12, 10, 11)
	for i, noCache := range []bool{false, true, false, true, true, false} {
		a, err := BuildAuto(m, AutoOptions{K: 8, Probe: true, NoCache: noCache, State: state})
		if err != nil {
			t.Fatal(err)
		}
		if c := a.Choice(); c.Cached != (i > 0 && !noCache) || (!c.Cached && !c.Probed) {
			t.Fatalf("build %d (NoCache=%v): %+v", i, noCache, c)
		}
	}
	if got := state.Learned.Len("host", 8); got != 1 {
		t.Errorf("six builds of one matrix left %d samples in the live vote, want 1", got)
	}
	if got := st.Stats().Appended; got != 1 {
		t.Errorf("six builds of one matrix appended %d journal lines, want 1", got)
	}
	st.Close()

	re, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if keys, _ := re.Decisions(); len(keys) != 1 {
		t.Errorf("reopened journal holds %d decisions, want 1", len(keys))
	}
	lrn := NewLearned()
	if n := lrn.WarmLoad(re); n != 1 || lrn.Len("host", 8) != 1 {
		t.Errorf("warm-load replayed %d samples (%d in host/k=8), want 1", n, lrn.Len("host", 8))
	}
}

// TestObserveImprovesNearest pins the incremental-learning contract on
// Nearest itself: observing a labeled point changes a nearby prediction.
func TestObserveImprovesNearest(t *testing.T) {
	n := NewOnline(3, 8)
	fv := core.FeatureVector{Rows: 1000, Cols: 1000, NNZ: 10000,
		MemFootprintMB: 0.5, AvgNNZPerRow: 10, SkewCoeff: 2, CrossRowSim: 0.5, AvgNumNeigh: 1}
	if _, ok := n.Predict(fv); ok {
		t.Fatal("empty online selector must not predict")
	}
	n.Observe(Sample{FV: fv, Best: "SELL-C-s"})
	got, ok := n.PredictNear(fv, LearnMaxDist)
	if !ok || got != "SELL-C-s" {
		t.Fatalf("PredictNear after Observe = %q, %v", got, ok)
	}
	// A far-away point must not borrow the experience.
	far := core.FeatureVector{Rows: 1, Cols: 1e6, NNZ: 5e6,
		MemFootprintMB: 4000, AvgNNZPerRow: 5e6, SkewCoeff: 0, CrossRowSim: 0, AvgNumNeigh: 0}
	if _, ok := n.PredictNear(far, LearnMaxDist); ok {
		t.Error("PredictNear generalized past its distance gate")
	}
	// The window drops the oldest sample.
	for i := 0; i < 8; i++ {
		n.Observe(Sample{FV: far, Best: "COO"})
	}
	if n.Len() != 8 {
		t.Errorf("window len = %d, want 8", n.Len())
	}
	if got, _ := n.PredictNear(far, LearnMaxDist); got != "COO" {
		t.Errorf("windowed base predicts %q, want COO", got)
	}
}
