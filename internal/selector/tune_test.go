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
	tuning, tuned := autotune(context.Background(), m, "BCSR", "host", 1, 0, tc)
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
	_, tuned2 := autotune(context.Background(), m, "BCSR", "host", 1, 0, tc)
	if tuned2[ParamBCSRBlock] != shape {
		t.Fatalf("cached re-apply picked %q, first sweep picked %q", tuned2[ParamBCSRBlock], shape)
	}
	if _, missAfter := tc.Stats(); missAfter != missBefore {
		t.Fatalf("cached path re-swept: misses %d -> %d", missBefore, missAfter)
	}
}

// TestBuildAutoTuneRecordsChoice checks the end-to-end wiring: Tune: true
// populates the decision record and sets the wide-row cutoff on
// CSR-family picks.
func TestBuildAutoTuneRecordsChoice(t *testing.T) {
	m := genMatrix(t, 8000, 12, 0, 78)
	tc := cache.NewTuneCache()
	a, err := BuildAuto(m, AutoOptions{K: 8, NoCache: true, NoLearn: true, Tune: true, State: &State{Tunes: tc}})
	if err != nil {
		t.Fatal(err)
	}
	c := a.Choice()
	if b, _ := formats.Lookup(a.Chosen()); b.Tunables&formats.TuneWideRows != 0 &&
		a.Unwrap().Traits().Vectorizable && (c.VecWideRowMin < 128 || c.VecWideRowMin > 512) {
		t.Errorf("VecWideRowMin = %d, want within [128, 512]", c.VecWideRowMin)
	}
	// Whatever was tuned must round-trip the cached decision path too.
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
	if got, want := a2.Choice().VecWideRowMin, a1.Choice().VecWideRowMin; got != want {
		t.Errorf("cached path VecWideRowMin = %d, fresh path %d", got, want)
	}
	for p, v := range a1.Choice().Tuned {
		if a2.Choice().Tuned[p] != v {
			t.Errorf("cached path lost tuned %s=%q: %+v", p, v, a2.Choice().Tuned)
		}
	}
}

// TestVecWideRowMinFor pins the inspector's clamping behavior on known
// row-length distributions.
func TestVecWideRowMinFor(t *testing.T) {
	short := genMatrix(t, 6000, 4, 0, 11) // p90 tiny -> lower clamp
	if got := vecWideRowMinFor(short); got != 128 {
		t.Errorf("short rows: cutoff = %d, want 128 (lower clamp)", got)
	}
	// A dense slab with 300 nnz/row: 4*p90 > 512 -> upper clamp.
	rows := 512
	ptr := make([]int32, rows+1)
	var idx []int32
	var val []float64
	for i := 0; i < rows; i++ {
		ptr[i] = int32(len(idx))
		for j := 0; j < 300; j++ {
			idx = append(idx, int32(j))
			val = append(val, 1)
		}
	}
	ptr[rows] = int32(len(idx))
	long, err := matrix.NewCSR(rows, rows, ptr, idx, val)
	if err != nil {
		t.Fatal(err)
	}
	if got := vecWideRowMinFor(long); got != 512 {
		t.Errorf("long rows: cutoff = %d, want 512 (upper clamp)", got)
	}
	if got := vecWideRowMinFor(&matrix.CSR{}); got != 0 {
		t.Errorf("empty matrix: cutoff = %d, want 0", got)
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
	if len(choice.Tuned) != 0 || choice.VecWideRowMin != 0 {
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
