package cache

// Graceful-degradation tests for the journal: every I/O failure mode —
// ENOSPC mid-append, a torn compaction rename, a broken flock, an
// unusable directory — must switch the store to memory-only with a
// recorded reason, leave the on-disk journal intact, and never surface an
// error to the selection path (zero failed Builds, zero failed
// multiplies).

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/failpoint"
)

// parseJournal re-reads the journal file raw and returns how many intact,
// schema-valid lines it holds. Degradation must never corrupt what a
// previous successful write put on disk.
func parseJournal(t *testing.T, path string) (lines int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("journal unreadable after degradation: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("journal line corrupted after degradation: %q", sc.Text())
		}
		lines++
	}
	return lines
}

func enableFailpoint(t *testing.T, name, spec string) {
	t.Helper()
	failpoint.SetEnabled(true)
	if err := failpoint.Enable(name, spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		failpoint.Disable(name)
		failpoint.SetEnabled(false)
	})
}

// TestAppendENOSPCDegradesToMemoryOnly: a full disk mid-append flips the
// store to memory-only; the decision that hit the wall (and every later
// one) still serves from memory, and the journal on disk keeps every
// line written before the failure.
func TestAppendENOSPCDegradesToMemoryOnly(t *testing.T) {
	c, st, _ := tempCache(t)
	k1 := DecisionKey{Fingerprint: 1, Device: "host", K: 1}
	c.Put(k1, Decision{Format: "Naive-CSR"})
	linesBefore := parseJournal(t, st.Path())

	enableFailpoint(t, "cache.append", "enospc")
	k2 := DecisionKey{Fingerprint: 2, Device: "host", K: 1}
	c.Put(k2, Decision{Format: "ELL"}) // hits injected ENOSPC

	deg, reason := st.Degraded()
	if !deg {
		t.Fatal("store not degraded after ENOSPC append")
	}
	if !strings.Contains(reason, "append") {
		t.Errorf("DegradedReason = %q, want append failure", reason)
	}
	stats := st.Stats()
	if !stats.Degraded || stats.DegradedReason != reason {
		t.Errorf("Stats degradation mismatch: %+v vs %q", stats, reason)
	}

	// The cache still serves both decisions, including the one whose
	// journal line was lost.
	keys, decs := c.Decisions()
	found := map[uint64]string{}
	for i, k := range keys {
		found[k.Fingerprint] = decs[i].Format
	}
	if found[1] != "Naive-CSR" || found[2] != "ELL" {
		t.Errorf("in-memory decisions after degradation = %v", found)
	}

	// Later appends are silent no-ops, not errors or panics.
	failpoint.Disable("cache.append") // disk "recovers"; degradation is sticky
	c.Put(DecisionKey{Fingerprint: 3}, Decision{Format: "COO"})
	if err := c.Compact(); err != nil {
		t.Errorf("Compact on degraded store = %v, want nil no-op", err)
	}

	// The on-disk journal is exactly what the successful writes left.
	if lines := parseJournal(t, st.Path()); lines != linesBefore {
		t.Errorf("journal has %d lines after degradation, want %d", lines, linesBefore)
	}
}

// TestTornRenameDegradesAndKeepsOldJournal: a compaction whose rename is
// torn away degrades the store; the pre-compaction journal survives
// intact on disk, the temp file is cleaned up, and a fresh Open replays
// the old contents.
func TestTornRenameDegradesAndKeepsOldJournal(t *testing.T) {
	c, st, dir := tempCache(t)
	k := DecisionKey{Fingerprint: 11, Device: "host", K: 8}
	c.Put(k, Decision{Format: "SELL-C-s", Probed: true})
	c.Put(k, Decision{Format: "ELL", Probed: true}) // supersedes: dead line
	linesBefore := parseJournal(t, st.Path())

	enableFailpoint(t, "cache.rename", "error")
	if err := c.Compact(); err == nil {
		t.Fatal("Compact with torn rename returned nil, want error")
	}
	deg, reason := st.Degraded()
	if !deg || !strings.Contains(reason, "compact") {
		t.Fatalf("degraded=%v reason=%q, want compact failure", deg, reason)
	}

	// Old journal intact, no temp litter.
	if lines := parseJournal(t, st.Path()); lines != linesBefore {
		t.Errorf("journal has %d lines after torn rename, want %d", lines, linesBefore)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind after torn rename", e.Name())
		}
	}

	// A fresh Open (next process) replays the surviving journal.
	failpoint.Disable("cache.rename")
	re, rs := attached(t, dir)
	if deg, _ := rs.Degraded(); deg {
		t.Error("fresh Open degraded; degradation must not persist across opens")
	}
	keys, decs := re.Decisions()
	if len(keys) != 1 || decs[0].Format != "ELL" {
		t.Errorf("replayed decisions = %v / %v, want the superseding ELL line", keys, decs)
	}
}

// TestFlockFailureDegrades: an flock error (not mere absence of locking)
// means journal mutation cannot be serialized against other processes, so
// the store goes memory-only rather than risk a torn interleaving.
func TestFlockFailureDegrades(t *testing.T) {
	c, st, _ := tempCache(t)

	enableFailpoint(t, "cache.flock", "error")
	c.Put(DecisionKey{Fingerprint: 21}, Decision{Format: "COO"})
	deg, reason := st.Degraded()
	if !deg || !strings.Contains(reason, "flock") {
		t.Fatalf("degraded=%v reason=%q, want flock failure", deg, reason)
	}
	// The decision still serves from the cache.
	keys, _ := c.Decisions()
	if len(keys) != 1 {
		t.Errorf("in-memory decisions = %d, want 1", len(keys))
	}
}

// TestUnusableDirIsMemoryOnly: Open on a path that cannot be a directory
// returns a working memory-only store, so persistence
// misconfiguration costs the journal, not the selection pipeline.
func TestUnusableDirIsMemoryOnly(t *testing.T) {
	base := t.TempDir()
	notADir := filepath.Join(base, "occupied")
	if err := os.WriteFile(notADir, []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	// MkdirAll under a regular file fails with ENOTDIR for every uid,
	// including root (a chmod-based unwritable dir would not stop root).
	c, st := attached(t, filepath.Join(notADir, "cache"))
	deg, reason := st.Degraded()
	if !deg || !strings.Contains(reason, "create dir") {
		t.Fatalf("degraded=%v reason=%q, want create-dir failure", deg, reason)
	}

	// The cache behind it is fully usable: puts, reads, compaction.
	k := DecisionKey{Fingerprint: 31, Device: "host", K: 1}
	d := Decision{Format: "Naive-CSR", Probed: true, FV: core.FeatureVector{Rows: 4, Cols: 4, NNZ: 8}}
	c.Put(k, d)
	keys, decs := c.Decisions()
	if len(keys) != 1 || decs[0] != d {
		t.Errorf("memory-only store lost its record: %+v %+v", keys, decs)
	}
	if err := c.Compact(); err != nil {
		t.Errorf("Compact on memory-only store = %v, want nil", err)
	}
}

// TestDegradedStoreBehindDecisionCache: the full selection-path contract —
// a DecisionCache whose attached journal degrades mid-run keeps serving
// Puts and Gets without a single error reaching the caller.
func TestDegradedStoreBehindDecisionCache(t *testing.T) {
	dc, st, _ := tempCache(t)

	k1 := DecisionKey{Fingerprint: 41, Device: "host", K: 1}
	dc.Put(k1, Decision{Format: "ELL"})

	enableFailpoint(t, "cache.append", "enospc")
	k2 := DecisionKey{Fingerprint: 42, Device: "host", K: 1}
	dc.Put(k2, Decision{Format: "COO"}) // journal append dies; Put must not care

	if d, ok := dc.Get(k1); !ok || d.Format != "ELL" {
		t.Errorf("Get(k1) = %v %v after degradation", d, ok)
	}
	if d, ok := dc.Get(k2); !ok || d.Format != "COO" {
		t.Errorf("Get(k2) = %v %v after degradation", d, ok)
	}
	if deg, _ := st.Degraded(); !deg {
		t.Error("attached store not degraded after injected ENOSPC")
	}
}
