package selector

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/matrix"
)

// TestAutotuneBCSRJournalsWinner checks the BCSR block-geometry sweep
// measures a winner, and that a known winner is recalled, not re-measured.
func TestAutotuneBCSRJournalsWinner(t *testing.T) {
	m := genMatrix(t, 8000, 12, 0, 77)
	tuning, tuned := autotune(context.Background(), m, "BCSR", 1, "")
	shape, ok := tuned[ParamBCSRBlock]
	if !ok || shape == "" {
		t.Fatalf("no BCSR block shape tuned: %+v", tuned)
	}
	br, bc, err := parseBlockShape(shape)
	if err != nil {
		t.Fatalf("winner %q does not parse: %v", shape, err)
	}
	if want := (formats.Tuning{BlockR: br, BlockC: bc}); shape != "2x2" && tuning != want {
		t.Fatalf("winner %q not carried by the build tuning: %+v", shape, tuning)
	}
	if got := decodeTuned(encodeTuned(tuned)); len(got) != len(tuned) || got[ParamBCSRBlock] != shape {
		t.Fatalf("tuning %+v does not round-trip its decision encoding: %+v", tuned, got)
	}

	// A shape no sweep can produce proves the recall path: it comes back as
	// given, even under a cancelled context (which skips every sweep).
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{context.Background(), cancelled} {
		tuning2, tuned2 := autotune(ctx, m, "BCSR", 1, "bcsr.block=8x8")
		if tuned2[ParamBCSRBlock] != "8x8" || tuning2 != (formats.Tuning{BlockR: 8, BlockC: 8}) {
			t.Fatalf("known winner re-swept: %+v %+v", tuned2, tuning2)
		}
	}
	if _, swept := autotune(cancelled, m, "BCSR", 1, ""); len(swept) != 0 {
		t.Fatalf("a cancelled sweep recorded a winner: %+v", swept)
	}
}

// TestBuildAutoTuneRecordsChoice checks the end-to-end wiring: Tune on a
// cached, un-tuned decision sweeps what it lacks and re-puts the decision —
// exactly one journal line — after which identical builds recall the tuning
// and append nothing; and a format with nothing to sweep is not rebuilt
// for it.
func TestBuildAutoTuneRecordsChoice(t *testing.T) {
	m := genMatrix(t, 8000, 12, 0, 78)
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	state := &State{Cache: cache.NewDecisionCache(), Shards: 1}
	state.Cache.AttachStore(st)
	key := cache.DecisionKey{Fingerprint: m.Fingerprint(), Device: "host", K: 8, Shards: 1}
	state.Cache.Put(key, cache.Decision{Format: "BCSR"})

	var tuned [3]map[string]string
	for i, wantAppended := range []int{2, 2, 2} {
		a, err := BuildAuto(m, AutoOptions{K: 8, NoLearn: true, Tune: true, State: state})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Choice().Cached || a.Chosen() != "BCSR" {
			t.Fatalf("build %d missed the cached decision: %+v", i, a.Choice())
		}
		if got := st.Stats().Appended; got != wantAppended {
			t.Fatalf("after tuned build %d the journal holds %d appended lines, want %d", i, got, wantAppended)
		}
		tuned[i] = a.Choice().Tuned
	}
	if tuned[0][ParamBCSRBlock] == "" {
		t.Fatalf("first Tune build swept no block shape: %+v", tuned[0])
	}
	d, _ := state.Cache.Get(key)
	for i := range tuned {
		if encodeTuned(tuned[i]) != d.Tuned {
			t.Errorf("build %d reports %+v, the decision remembers %q", i, tuned[i], d.Tuned)
		}
	}
	// A build without Tune leaves the remembered tuning alone.
	if _, err := BuildAuto(m, AutoOptions{K: 8, NoLearn: true, State: state}); err != nil {
		t.Fatal(err)
	}
	if d2, _ := state.Cache.Get(key); d2 != d || st.Stats().Appended != 2 {
		t.Errorf("an untuned build changed the decision: %+v -> %+v", d, d2)
	}

	// MKL-IE sweeps nothing at k = 1, so its tuning is the zero one and the
	// instance the probe built on the full matrix is the one served.
	b, _ := formats.Lookup("MKL-IE")
	have, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	choice := formats.AutoChoice{Device: "host"}
	f, _, err := build(context.Background(), m, "MKL-IE", have, 1, AutoOptions{Tune: true}, "", &choice)
	if err != nil || f != have {
		t.Errorf("tuned build of an unswept format = %p, %v; want the probe's instance %p", f, err, have)
	}
}

// TestBuildServesDefaultWhenTunedShapeRefused: a remembered block shape the
// full matrix refuses must leave the default build served and nothing
// reported as tuned, so the choice never claims parameters the instance
// does not have — while the decision keeps the measurement, so it is not
// swept again.
func TestBuildServesDefaultWhenTunedShapeRefused(t *testing.T) {
	m := matrix.Tridiagonal(20000, 2, -1) // 16x16 blocks fill 16x > MaxBCSRFillRatio
	choice := formats.AutoChoice{Device: "host"}
	f, remembered, err := build(context.Background(), m, "BCSR", nil, 1, AutoOptions{Tune: true}, "bcsr.block=16x16", &choice)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Tuned) != 0 {
		t.Errorf("refused tuning recorded as applied: %+v", choice)
	}
	if remembered[ParamBCSRBlock] != "16x16" {
		t.Errorf("the refused shape was forgotten (it would be swept again): %+v", remembered)
	}
	want, err := formats.NewBCSR(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Bytes() != want.Bytes() {
		t.Errorf("served instance is not the default 2x2 build: %d bytes, want %d", f.Bytes(), want.Bytes())
	}
}
