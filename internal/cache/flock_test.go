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
	c1, st1, dir := tempCache(t)
	c1.Put(dk(1, 1), Decision{Format: "COO", Probed: true, FV: core.FeatureVector{Rows: 10}})

	c2, st2 := attached(t, dir)
	if err := c2.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st2.Close()

	// st1's handle now points at the pre-compaction inode; the append must
	// detect that and re-target the live file.
	c1.Put(dk(2, 1), Decision{Format: "ELL", Probed: true, FV: core.FeatureVector{Rows: 20}})
	st1.Close()

	c3, _ := attached(t, dir)
	keys, decs := c3.Decisions()
	if len(decs) != 2 || keys[1] != dk(2, 1) || decs[1].Format != "ELL" || decs[1].FV.Rows != 20 {
		t.Fatalf("append after foreign compaction lost: %+v %+v", keys, decs)
	}
}

// TestLockFileCreated: Open drops the sidecar lock file next to the
// journal (its presence is how cooperating processes find the lock).
func TestLockFileCreated(t *testing.T) {
	dir := t.TempDir()
	defer Open(dir).Close()
	if _, err := os.Stat(filepath.Join(dir, lockName)); err != nil {
		t.Fatalf("lock file missing: %v", err)
	}
}
