package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simd"
)

// TestJournalSurvivesLevelCap covers the cap/fingerprint interaction: a
// journal written under a SIMD level cap must not be invalidated when a
// later run on the same machine uses a different level — the host
// fingerprint tracks the detected hardware, and records are scoped to the
// dispatch level they were measured under, surviving other levels'
// compactions.
func TestJournalSurvivesLevelCap(t *testing.T) {
	if simd.DetectedLevel() == "scalar" {
		t.Skip("no accelerated kernels on this CPU")
	}
	dir := t.TempDir()
	prev := simd.SetLevel("avx2")
	defer simd.SetLevel(prev)

	// Run 1: capped at avx2, journal a bare decision and a sampled one.
	capped := HostFingerprint()
	k1 := DecisionKey{Fingerprint: 11, Device: "host", K: 1}
	k8 := DecisionKey{Fingerprint: 11, Device: "host", K: 8}
	sampled := Decision{Format: "BCSR", Probed: true, FV: core.FeatureVector{Rows: 7, NNZ: 21}}
	c1, st1 := attached(t, dir)
	c1.Put(k1, Decision{Format: "ELL"})
	c1.Put(k8, sampled)
	st1.Close()

	// Run 2: a different dispatch level on the same machine. The journal
	// must load without wholesale invalidation; the capped run's records
	// are not evidence here but must survive this run's compaction.
	simd.SetLevel("scalar")
	if got := HostFingerprint(); got != capped {
		t.Fatalf("host fingerprint changed with the cap: %q vs %q", got, capped)
	}
	c2, st2 := attached(t, dir)
	if st := st2.Stats(); st.Invalidated {
		t.Fatalf("capped journal invalidated wholesale: %+v", st)
	} else if st.Foreign < 2 {
		t.Errorf("foreign (other-level) records carried = %d, want >= 2", st.Foreign)
	}
	if keys, _ := c2.Decisions(); len(keys) != 0 {
		t.Errorf("other level's decisions loaded as evidence: %+v", keys)
	}
	k2 := DecisionKey{Fingerprint: 22, Device: "host", K: 1}
	c2.Put(k2, Decision{Format: "Naive-CSR"})
	if err := c2.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st2.Close()

	// Run 3: back under the cap — the capped records resurface, the
	// scalar run's are now the foreign ones.
	simd.SetLevel("avx2")
	c3, st3 := attached(t, dir)
	if st := st3.Stats(); st.Invalidated {
		t.Fatalf("journal invalidated after cross-level compaction: %+v", st)
	}
	keys, decs := c3.Decisions()
	if len(keys) != 2 || keys[0] != k1 || decs[0].Format != "ELL" || keys[1] != k8 || decs[1] != sampled {
		t.Errorf("capped decisions (one probed, with a sample) lost across a scalar run's compaction: %+v %+v", keys, decs)
	}
}

// TestTuneJournalRoundTrip: decision lines written by builds that
// autotuned BCSR blocks and SpMM tiles carry a "tuned" field. They load
// with it ignored — format, probed flag and sample intact, and a line that
// differs from a later one only there superseded by it (one dead line) —
// an identical re-put appends nothing, and a compaction rewrites them
// without the field.
func TestTuneJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	lvl := simd.Level()
	lines := []string{
		fmt.Sprintf(`{"v":2,"kind":"header","schema":2,"host":%q}`, HostFingerprint()),
		fmt.Sprintf(`{"v":2,"kind":"decision","lvl":%q,"fp":7,"device":"host","k":8,"format":"BCSR","probed":true,"tuned":"bcsr.block=4x4 spmm.tile=8","fv":{"Rows":9,"Cols":9,"NNZ":27,"AvgNNZPerRow":3}}`, lvl),
		fmt.Sprintf(`{"v":2,"kind":"decision","lvl":%q,"fp":8,"device":"host","k":8,"format":"ELL","tuned":"spmm.tile=4"}`, lvl),
		fmt.Sprintf(`{"v":2,"kind":"decision","lvl":%q,"fp":8,"device":"host","k":8,"format":"ELL","tuned":"spmm.tile=8"}`, lvl),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantKeys := []DecisionKey{dk(7, 8), dk(8, 8)}
	wantDecs := []Decision{
		{Format: "BCSR", Probed: true, FV: core.FeatureVector{Rows: 9, Cols: 9, NNZ: 27, AvgNNZPerRow: 3}},
		{Format: "ELL"},
	}
	check := func(c *DecisionCache, when string) {
		t.Helper()
		keys, decs := c.Decisions()
		if !slices.Equal(keys, wantKeys) || !slices.Equal(decs, wantDecs) {
			t.Fatalf("%s: loaded %+v %+v, want %+v %+v", when, keys, decs, wantKeys, wantDecs)
		}
	}

	c, st := attached(t, dir)
	check(c, "open")
	if s := st.Stats(); s.Invalidated || s.Skipped != 0 || s.Dead != 1 {
		t.Fatalf("open: stats %+v, want nothing invalidated or skipped and the superseded line dead", s)
	}
	c.Put(dk(8, 8), Decision{Format: "ELL"})
	if n := st.Stats().Appended; n != 0 {
		t.Fatalf("an identical re-put appended %d lines, want 0", n)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "tuned") || strings.Count(string(b), "\n") != 3 {
		t.Fatalf("compacted journal = %q, want a header and two decision lines without the tuning", b)
	}

	re, _ := attached(t, dir)
	check(re, "reopen after compaction")
}
