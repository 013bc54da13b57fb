package update

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/selector"
)

// applyFixedDrift drives a deterministic update sequence: same seed, same
// cells, so two Updatables over the same base compact to structurally
// identical matrices (equal fingerprints).
func applyFixedDrift(u *Updatable, rows, cols int) {
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 5000; i++ {
		u.Set(rng.Intn(rows), rng.Intn(cols), float64(rng.Intn(15)+1))
	}
}

// TestCompactReAutoZeroProbesWarm is the acceptance test for the
// re-selection hook: a compaction in a "warm" process — same journal
// directory, fresh in-memory caches, like any restart — must re-run Auto
// on the merged matrix with zero micro-probes and reproduce the cold
// process's decision.
func TestCompactReAutoZeroProbesWarm(t *testing.T) {
	dir := t.TempDir()
	m, err := gen.Generate(gen.Params{
		Rows: 20000, Cols: 20000,
		AvgNNZPerRow: 12, StdNNZPerRow: 4,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 0.9,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cold process: build, drift, compact; both decisions journaled.
	st1, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dc1 := cache.NewDecisionCache()
	dc1.AttachStore(st1)
	u1, err := New(m, Options{Probe: true, State: &selector.State{Cache: dc1}, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	applyFixedDrift(u1, m.Rows, m.Cols)
	if err := u1.Compact(); err != nil {
		t.Fatal(err)
	}
	a1, ok := u1.Base().(*formats.Auto)
	if !ok {
		t.Fatalf("compacted base is %T, want *formats.Auto", u1.Base())
	}
	if a1.Choice().Cached {
		t.Fatal("cold re-selection must not be a cache hit")
	}
	coldFP := u1.BaseMatrix().Fingerprint()
	if coldFP == m.Fingerprint() {
		t.Fatal("drift did not change the fingerprint; test is vacuous")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm process: fresh in-memory state over the same journal.
	st2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	dc2 := cache.NewDecisionCache()
	if n := dc2.AttachStore(st2); n < 2 {
		t.Fatalf("warm-loaded %d decisions, want >= 2 (initial build + re-selection)", n)
	}
	u2, err := New(m, Options{Probe: true, State: &selector.State{Cache: dc2}, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	applyFixedDrift(u2, m.Rows, m.Cols)
	probesBefore := selector.ProbeCount()
	if err := u2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := selector.ProbeCount() - probesBefore; got != 0 {
		t.Errorf("warm compaction ran %d micro-probes, want 0", got)
	}
	a2 := u2.Base().(*formats.Auto)
	if !a2.Choice().Cached {
		t.Error("warm re-selection missed the persistent cache")
	}
	if a2.Chosen() != a1.Chosen() {
		t.Errorf("warm re-selection chose %q, cold chose %q", a2.Chosen(), a1.Chosen())
	}
	if u2.BaseMatrix().Fingerprint() != coldFP {
		t.Error("deterministic drift produced different merged fingerprints")
	}
}
