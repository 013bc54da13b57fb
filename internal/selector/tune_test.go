package selector

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/matrix"
)

// TestAutotuneBCSRJournalsWinner checks the BCSR block-geometry sweep runs
// once, caches its winner, and the cached path re-applies it without
// re-measuring.
func TestAutotuneBCSRJournalsWinner(t *testing.T) {
	m := genMatrix(t, 8000, 12, 0, 77)
	tc := cache.NewTuneCache()
	tuning, tuned := autotune(context.Background(), m, "BCSR", "host", 1, tc)
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
	key := cache.TuneKey{Fingerprint: m.Fingerprint(), Device: "host", K: 1, Param: ParamBCSRBlock}
	if v, ok := tc.Get(key); !ok || v != shape {
		t.Fatalf("winner not cached: got %q, %v; want %q", v, ok, shape)
	}

	// Second call must hit the cache: zero additional misses.
	_, missBefore := tc.Stats()
	_, tuned2 := autotune(context.Background(), m, "BCSR", "host", 1, tc)
	if tuned2[ParamBCSRBlock] != shape {
		t.Fatalf("cached re-apply picked %q, first sweep picked %q", tuned2[ParamBCSRBlock], shape)
	}
	if _, missAfter := tc.Stats(); missAfter != missBefore {
		t.Fatalf("cached path re-swept: misses %d -> %d", missBefore, missAfter)
	}
}

// TestBuildAutoTuneRecordsChoice checks the end-to-end wiring: whatever
// Tune: true records on a fresh decision round-trips the cached decision
// path, and a format with nothing to sweep is not rebuilt for it.
func TestBuildAutoTuneRecordsChoice(t *testing.T) {
	m := genMatrix(t, 8000, 12, 0, 78)
	tc := cache.NewTuneCache()
	dc := cache.NewDecisionCache()
	a1, err := BuildAuto(m, AutoOptions{K: 8, NoLearn: true, Tune: true, State: &State{Cache: dc, Tunes: tc}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildAuto(m, AutoOptions{K: 8, NoLearn: true, Tune: true, State: &State{Cache: dc, Tunes: tc}})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Choice().Cached {
		t.Fatalf("second build missed the decision cache")
	}
	for p, v := range a1.Choice().Tuned {
		if a2.Choice().Tuned[p] != v {
			t.Errorf("cached path lost tuned %s=%q: %+v", p, v, a2.Choice().Tuned)
		}
	}

	// MKL-IE sweeps nothing at k = 1, so its tuning is the zero one and the
	// instance the probe built on the full matrix is the one served.
	b, _ := formats.Lookup("MKL-IE")
	have, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	choice := formats.AutoChoice{Device: "host"}
	f, err := build(context.Background(), m, "MKL-IE", have, 1, AutoOptions{Tune: true, State: &State{Tunes: tc}}, &choice)
	if err != nil || f != have {
		t.Errorf("tuned build of an unswept format = %p, %v; want the probe's instance %p", f, err, have)
	}
}

// TestBuildServesDefaultWhenTunedShapeRefused: a journaled block shape the
// full matrix refuses must leave the default build served and nothing
// recorded as tuned, so the decision record never claims parameters the
// instance does not have.
func TestBuildServesDefaultWhenTunedShapeRefused(t *testing.T) {
	m := matrix.Tridiagonal(20000, 2, -1) // 16x16 blocks fill 16x > MaxBCSRFillRatio
	tc := cache.NewTuneCache()
	tc.Put(cache.TuneKey{Fingerprint: m.Fingerprint(), Device: "host", K: 1, Param: ParamBCSRBlock}, "16x16")
	choice := formats.AutoChoice{Device: "host"}
	f, err := build(context.Background(), m, "BCSR", nil, 1, AutoOptions{Tune: true, State: &State{Tunes: tc}}, &choice)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Tuned) != 0 {
		t.Errorf("refused tuning recorded as applied: %+v", choice)
	}
	want, err := formats.NewBCSR(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Bytes() != want.Bytes() {
		t.Errorf("served instance is not the default 2x2 build: %d bytes, want %d", f.Bytes(), want.Bytes())
	}
}
