package selector

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// TestReselectInvalidatesDriftedDecisions: after structure drift, Reselect
// must drop every cached regime of the predecessor fingerprint — its
// tuning with it, in memory and in the journal's mirror — and cache a
// fresh decision for the successor.
func TestReselectInvalidatesDriftedDecisions(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dc := cache.NewDecisionCache()
	dc.AttachStore(st)
	m1 := matrix.Random(300, 300, 0.05, 3)
	a1, err := BuildAuto(m1, AutoOptions{State: &State{Cache: dc}, NoLearn: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildAuto(m1, AutoOptions{K: 8, State: &State{Cache: dc}, NoLearn: true}); err != nil {
		t.Fatal(err)
	}
	if dc.Len() != 2 {
		t.Fatalf("cache holds %d decisions, want 2 (k=1 and k=8)", dc.Len())
	}
	// The k = 1 decision carries a tuning, as an autotuned build leaves it.
	oldKey := cache.DecisionKey{
		Fingerprint: m1.Fingerprint(), Device: a1.Choice().Device, K: 1, Shards: topo.Shards(),
	}
	dc.Put(oldKey, cache.Decision{Format: a1.Chosen(), Tuned: "bcsr.block=4x4"})

	// Drift: densify a band of rows, changing the structural fingerprint.
	o := m1.ToCOO()
	for r := int32(0); r < 40; r++ {
		for c := int32(0); c < 200; c += 2 {
			o.Append(r, c, 0.5)
		}
	}
	m2 := o.ToCSR()
	if m2.Fingerprint() == m1.Fingerprint() {
		t.Fatal("drifted matrix kept its fingerprint; test is vacuous")
	}

	a2, dropped, err := Reselect(m1.Fingerprint(), m2, AutoOptions{State: &State{Cache: dc}, NoLearn: true})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("Reselect dropped %d stale decisions, want 2", dropped)
	}
	if _, ok := dc.Get(oldKey); ok {
		t.Fatal("stale decision for the predecessor fingerprint still cached")
	}
	keys, decs := st.Decisions()
	for i, k := range keys {
		if k.Fingerprint == m1.Fingerprint() {
			t.Errorf("the journal still remembers the predecessor: %+v %+v", k, decs[i])
		}
	}
	newKey := cache.DecisionKey{
		Fingerprint: m2.Fingerprint(), Device: a2.Choice().Device, K: 1, Shards: topo.Shards(),
	}
	if d, ok := dc.Get(newKey); !ok || d.Format != a2.Chosen() {
		t.Fatalf("successor decision not cached (ok=%v)", ok)
	}
}
