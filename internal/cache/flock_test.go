package cache

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestAppendSurvivesForeignCompaction: when another handle compacts
// (renames over) the journal, a subsequent append through the old handle
// must land in the live file, not the unlinked inode. This is the inode
// re-check behind the best-effort cross-process story.
func TestAppendSurvivesForeignCompaction(t *testing.T) {
	dir := t.TempDir()
	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	st1.AppendDecision(dk(1, 1), Decision{Format: "COO", Probed: true, FV: core.FeatureVector{Rows: 10}})

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st2.Close()

	// st1's handle now points at the pre-compaction inode; the append must
	// detect that and re-target the live file.
	st1.AppendDecision(dk(2, 1), Decision{Format: "ELL", Probed: true, FV: core.FeatureVector{Rows: 20}})
	st1.Close()

	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	keys, decs := st3.Decisions()
	if len(decs) != 2 || keys[1] != dk(2, 1) || decs[1].Format != "ELL" || decs[1].FV.Rows != 20 {
		t.Fatalf("append after foreign compaction lost: %+v %+v", keys, decs)
	}
}

// TestLockFileCreated: Open drops the sidecar lock file next to the
// journal (its presence is how cooperating processes find the lock).
func TestLockFileCreated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := os.Stat(filepath.Join(dir, lockName)); err != nil {
		t.Fatalf("lock file missing: %v", err)
	}
}
