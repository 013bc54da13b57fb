package cache

import (
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
	if !simd.Available() {
		t.Skip("no accelerated kernels on this host")
	}
	dir := t.TempDir()
	prev := simd.SetLevel("avx2")
	defer simd.SetLevel(prev)

	// Run 1: capped at avx2, journal a bare decision and a tuned one.
	capped := HostFingerprint()
	k1 := DecisionKey{Fingerprint: 11, Device: "host", K: 1}
	k8 := DecisionKey{Fingerprint: 11, Device: "host", K: 8}
	tuned := Decision{Format: "BCSR", Probed: true, Tuned: "bcsr.block=4x4", FV: core.FeatureVector{Rows: 7, NNZ: 21}}
	c1, st1 := attached(t, dir)
	c1.Put(k1, Decision{Format: "ELL"})
	c1.Put(k8, tuned)
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
	if len(keys) != 2 || keys[0] != k1 || decs[0].Format != "ELL" || keys[1] != k8 || decs[1] != tuned {
		t.Errorf("capped decisions (one with tuning and sample) lost across a scalar run's compaction: %+v %+v", keys, decs)
	}
}

// TestTuneJournalRoundTrip: a decision's tuning round-trips the journal
// end to end — put through a cache, reopen, load — and a re-put with
// more tuning supersedes the earlier line (one live decision, last line
// wins, one dead line).
func TestTuneJournalRoundTrip(t *testing.T) {
	c, st, dir := tempCache(t)
	ka, kb := dk(7, 8), dk(8, 8)
	c.Put(ka, Decision{Format: "BCSR", Tuned: "bcsr.block=2x2"})
	c.Put(kb, Decision{Format: "ELL", Tuned: "spmm.tile=8"})
	c.Put(ka, Decision{Format: "BCSR", Tuned: "bcsr.block=4x4 spmm.tile=4"}) // supersedes
	if st.Stats().Appended != 3 {
		t.Fatalf("appended %d lines, want 3", st.Stats().Appended)
	}
	c.Put(ka, Decision{Format: "BCSR", Tuned: "bcsr.block=4x4 spmm.tile=4"}) // identical: dropped
	if got := st.Stats(); got.Appended != 3 || got.Dead != 1 {
		t.Fatalf("after an identical re-put: %d appended, %d dead; want 3 and 1", got.Appended, got.Dead)
	}
	st.Close()

	warm, re := attached(t, dir)
	if n := re.Stats().Decisions; n != 2 {
		t.Fatalf("loaded %d decisions, want 2", n)
	}
	if d, ok := warm.Get(ka); !ok || d.Tuned != "bcsr.block=4x4 spmm.tile=4" {
		t.Errorf("superseded tuning = %+v, %v; want the last line's", d, ok)
	}
	if d, ok := warm.Get(kb); !ok || d.Tuned != "spmm.tile=8" {
		t.Errorf("tuning = %+v, %v; want spmm.tile=8", d, ok)
	}
	// The superseding decision is the newest measurement: last in order.
	if keys, _ := warm.Decisions(); keys[len(keys)-1] != ka {
		t.Errorf("journal order %+v, want the superseded key last", keys)
	}
}
