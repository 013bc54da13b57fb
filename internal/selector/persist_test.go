package selector

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// journaled opens the journal in dir behind a fresh decision cache — what
// a process starting on it does — and closes the store when the test ends.
func journaled(t *testing.T, dir string) (*cache.DecisionCache, *cache.Store) {
	t.Helper()
	st := cache.Open(dir)
	t.Cleanup(func() { st.Close() })
	dc := cache.NewDecisionCache()
	dc.Attach(st)
	return dc, st
}

// TestPersistRoundTripZeroProbes is the satellite acceptance test: a full
// save -> restart -> load cycle must reproduce identical decisions with
// zero micro-probes. "Restart" is simulated with a fresh DecisionCache and
// Store over the same directory — exactly what a new process does.
func TestPersistRoundTripZeroProbes(t *testing.T) {
	dir := t.TempDir()
	mats := []*matrix.CSR{
		genMatrix(t, 20000, 12, 10, 5),
		genMatrix(t, 24000, 8, 200, 6),
		genMatrix(t, 18000, 30, 0, 7),
	}

	// Cold process: probe-backed decisions, journaled.
	dc1, st1 := journaled(t, dir)
	var cold []string
	for _, m := range mats {
		for _, k := range []int{1, 8} {
			a, err := BuildAuto(m, AutoOptions{K: k, Probe: true, Cache: dc1, NoLearn: true})
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
	dc2, st2 := journaled(t, dir)
	if n := st2.Stats().Decisions; n != len(cold) {
		t.Fatalf("loaded %d decisions, want %d", n, len(cold))
	}
	probesBefore := ProbeCount()
	i := 0
	for _, m := range mats {
		for _, k := range []int{1, 8} {
			a, err := BuildAuto(m, AutoOptions{K: k, Probe: true, Cache: dc2, NoLearn: true})
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

// TestLearnedExperiencePersists: a probe outcome recorded in one "process"
// — as the sample on the decision it backed — votes in the next, near the
// matrix it measured and nowhere far from it.
func TestLearnedExperiencePersists(t *testing.T) {
	dir := t.TempDir()
	dc1, st1 := journaled(t, dir)
	m := genMatrix(t, 20000, 12, 10, 9)
	a, err := BuildAuto(m, AutoOptions{K: 8, Probe: true, Cache: dc1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Choice().Probed {
		t.Skip("probe skipped (matrix under probe floor); nothing to persist")
	}
	st1.Close()

	dc2, _ := journaled(t, dir)
	keys, decs := dc2.Decisions()
	if len(decs) != 1 || decs[0].FV != core.Extract(m) {
		t.Fatalf("probe outcome not journaled as the decision's sample: %+v", decs)
	}
	if keys[0].K != 8 || decs[0].Format != a.Chosen() || !decs[0].Probed {
		t.Errorf("journaled %+v %+v, want probed winner %q at k=8", keys[0], decs[0], a.Chosen())
	}
	if got, ok := vote(dc2, keys[0].Device, 8, core.Extract(m)); !ok || got != a.Chosen() {
		t.Errorf("reopened vote picks %q (%v), want the measured winner %q", got, ok, a.Chosen())
	}
	far := core.FeatureVector{Rows: 1, Cols: 1e6, NNZ: 5e6,
		MemFootprintMB: 4000, AvgNNZPerRow: 5e6}
	if _, ok := vote(dc2, keys[0].Device, 8, far); ok {
		t.Error("the vote generalized past its distance gate")
	}
}

// TestOneDecisionOneSample: however often one matrix is decided — cold,
// from the cache, or around it with NoCache — selection remembers one
// thing for it: one live journal line, one sample in the vote now and one
// after a restart.
func TestOneDecisionOneSample(t *testing.T) {
	dir := t.TempDir()
	dc, st := journaled(t, dir)
	m := genMatrix(t, 20000, 12, 10, 11)
	for i, noCache := range []bool{false, true, false, true, true, false} {
		a, err := BuildAuto(m, AutoOptions{K: 8, Probe: true, NoCache: noCache, Cache: dc})
		if err != nil {
			t.Fatal(err)
		}
		if c := a.Choice(); c.Cached != (i > 0 && !noCache) || (!c.Cached && !c.Probed) {
			t.Fatalf("build %d (NoCache=%v): %+v", i, noCache, c)
		}
	}
	if votes, _ := dc.Samples("host", 8); len(votes) != 1 {
		t.Errorf("six builds of one matrix left %d samples in the vote, want 1", len(votes))
	}
	if got := st.Stats().Appended; got != 1 {
		t.Errorf("six builds of one matrix appended %d journal lines, want 1", got)
	}
	st.Close()

	re, _ := journaled(t, dir)
	if keys, _ := re.Decisions(); len(keys) != 1 {
		t.Errorf("reopened journal holds %d decisions, want 1", len(keys))
	}
	if votes, _ := re.Samples("host", 8); len(votes) != 1 {
		t.Errorf("the reopened vote reads %d samples, want 1", len(votes))
	}
}

// TestStaleJournalFormatReselects: a journal written by a build that had a
// format this one lacks (DIA and ELL lost their kernels, Vec-CSR and
// Bal-CSR their registry entries) cannot serve that decision; the build
// selects afresh and its decision is the only one left for the key once
// the journal is compacted.
func TestStaleJournalFormatReselects(t *testing.T) {
	m := genMatrix(t, 3000, 10, 5, 12)
	for _, stale := range []string{"DIA", "ELL", "Vec-CSR", "Bal-CSR"} {
		t.Run(stale, func(t *testing.T) {
			dir := t.TempDir()
			journal := fmt.Sprintf("{\"v\":2,\"kind\":\"header\",\"schema\":2,\"host\":%q}\n"+
				"{\"v\":2,\"kind\":\"decision\",\"lvl\":%q,\"fp\":%d,\"device\":\"host\",\"k\":1,\"format\":%q}\n",
				cache.HostFingerprint(), simd.Level(), m.Fingerprint(), stale)
			if err := os.WriteFile(filepath.Join(dir, "decisions.jsonl"), []byte(journal), 0o644); err != nil {
				t.Fatal(err)
			}
			dc, st := journaled(t, dir)
			if n := st.Stats().Decisions; n != 1 {
				t.Fatalf("loaded %d decisions, want the stale one", n)
			}
			a, err := BuildAuto(m, AutoOptions{Cache: dc})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := formats.Lookup(a.Chosen()); !ok || a.Choice().Cached {
				t.Errorf("chose %q, cached %v: want a fresh pick with a kernel", a.Chosen(), a.Choice().Cached)
			}
			if err := dc.Compact(); err != nil {
				t.Fatal(err)
			}
			st.Close()
			re, _ := journaled(t, dir)
			keys, decs := re.Decisions()
			if len(keys) != 1 || keys[0].Fingerprint != m.Fingerprint() || decs[0].Format != a.Chosen() {
				t.Errorf("compacted journal holds %+v %+v, want only the new %q decision", keys, decs, a.Chosen())
			}
		})
	}
}

// TestTunedJournalLineBuildsDefault: a decision line written by a build
// that autotuned BCSR's block geometry still serves its key. The "tuned"
// field is ignored: the cached BCSR decision builds the one 2x2 geometry,
// bit for bit the fresh build, appends nothing, and a compaction rewrites
// the line without the field.
func TestTunedJournalLineBuildsDefault(t *testing.T) {
	dir := t.TempDir()
	m := genMatrix(t, 3000, 10, 5, 14)
	journal := fmt.Sprintf("{\"v\":2,\"kind\":\"header\",\"schema\":2,\"host\":%q}\n"+
		"{\"v\":2,\"kind\":\"decision\",\"lvl\":%q,\"fp\":%d,\"device\":\"host\",\"k\":1,\"format\":\"BCSR\",\"probed\":true,\"tuned\":\"bcsr.block=4x4 spmm.tile=8\"}\n",
		cache.HostFingerprint(), simd.Level(), m.Fingerprint())
	path := filepath.Join(dir, "decisions.jsonl")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	dc, st := journaled(t, dir)
	a, err := BuildAuto(m, AutoOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if c := a.Choice(); a.Chosen() != "BCSR" || !c.Cached || !c.Probed {
		t.Fatalf("chose %q (cached %v, probed %v): want the journaled, probed BCSR decision", a.Chosen(), c.Cached, c.Probed)
	}
	b, _ := formats.Lookup("BCSR")
	fresh, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(m.Cols, 15)
	got, want := make([]float64, m.Rows), make([]float64, m.Rows)
	a.SpMV(x, got)
	fresh.SpMV(x, want)
	if a.Bytes() != fresh.Bytes() || !slices.Equal(got, want) {
		t.Errorf("cached BCSR (%d bytes) differs from the fresh 2x2 build (%d bytes)", a.Bytes(), fresh.Bytes())
	}
	if n := st.Stats().Appended; n != 0 {
		t.Errorf("serving the cached decision appended %d lines, want 0", n)
	}
	if err := dc.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if b, err := os.ReadFile(path); err != nil || strings.Contains(string(b), "tuned") || !strings.Contains(string(b), `"probed":true`) {
		t.Errorf("compacted journal = %q (%v), want the decision kept without its tuning", b, err)
	}
}

// TestLearnedPickMustBeOffered: a k-NN sample naming a format the device
// does not offer (DIA, ELL, Vec-CSR or Bal-CSR, journaled when it was
// still registered) does not steer the shortlist: promoting it would put
// an unbuildable name first.
func TestLearnedPickMustBeOffered(t *testing.T) {
	defer func(prev func() device.Spec) { hostSpec = prev }(hostSpec)
	hostSpec = fixtureHost
	m := genMatrix(t, 3000, 10, 5, 13)
	// A sample of m's own features under another fingerprint: m's build
	// misses the cache, but the vote reads it.
	other := cache.DecisionKey{Fingerprint: 1, Device: "host", K: 1}
	for _, stale := range []string{"DIA", "ELL", "Vec-CSR", "Bal-CSR"} {
		dc := cache.NewDecisionCache()
		dc.Put(other, cache.Decision{Format: stale, Probed: true, FV: core.Extract(m)})
		a, err := BuildAuto(m, AutoOptions{Cache: dc})
		if err != nil {
			t.Fatal(err)
		}
		if c := a.Choice(); c.Voted || slices.Contains(c.Shortlist, stale) {
			t.Errorf("%s: voted %v, shortlist %v: a format without a kernel steered the choice", stale, c.Voted, c.Shortlist)
		}
	}
	// An offered format still steers.
	dc := cache.NewDecisionCache()
	dc.Put(other, cache.Decision{Format: "CSR5", Probed: true, FV: core.Extract(m)})
	a, err := BuildAuto(m, AutoOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if c := a.Choice(); !c.Voted || c.Shortlist[0] != "CSR5" {
		t.Errorf("voted %v, shortlist %v: want CSR5 promoted", c.Voted, c.Shortlist)
	}
}
