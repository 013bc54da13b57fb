package session

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/update"
)

func testMatrix() *matrix.CSR { return matrix.Random(300, 300, 0.02, 77) }

// Two sessions with distinct cache directories journal independently:
// a decision made under one is invisible to the other, on disk and in
// memory — the "concurrent writers sharing one journal" fix.
func TestSessionsJournalIndependently(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")

	sa, err := New(Options{CacheDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := New(Options{CacheDir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	m := testMatrix()
	if _, err := sa.Auto(m, selector.AutoOptions{}); err != nil {
		t.Fatal(err)
	}

	if sa.Cache().Len() == 0 {
		t.Fatal("session A cached no decision")
	}
	if sb.Cache().Len() != 0 {
		t.Fatalf("session A's decision leaked into session B (len %d)", sb.Cache().Len())
	}
	if sa.Store().Stats().Appended == 0 {
		t.Fatal("session A journaled nothing")
	}
	if n := sb.Store().Stats().Appended; n != 0 {
		t.Fatalf("session A's decision leaked into session B's journal (%d lines)", n)
	}

	// A's journal warm-loads into a fresh session on the same dir; B's
	// stays empty.
	sa.Close()
	sa2, err := New(Options{CacheDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()
	if sa2.Cache().Len() == 0 {
		t.Fatal("restarted session on A's dir did not warm-load")
	}
}

// Sessions never touch the default session's state: decisions — and the
// samples the vote reads among them — go to the session's cache, not
// Default()'s.
func TestSessionIsolatedFromDefault(t *testing.T) {
	d := Default()
	defaultBefore := d.Cache().Len()

	s, err := New(Options{CacheDir: filepath.Join(t.TempDir(), "s")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Auto(testMatrix(), selector.AutoOptions{Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	ch := a.Choice()

	if got := d.Cache().Len(); got != defaultBefore {
		t.Fatalf("session build grew the default decision cache: %d -> %d", defaultBefore, got)
	}
	if ch.Probed {
		if votes, _ := s.Cache().Samples(ch.Device, ch.K); len(votes) == 0 {
			t.Fatal("probe outcome missing from the session's vote")
		}
		if votes, _ := d.Cache().Samples(ch.Device, ch.K); len(votes) != 0 {
			t.Fatalf("probe outcome leaked into the default session's vote: %d", len(votes))
		}
	}
}

// The constructor Default() wraps is the env-only opt-in: given a
// directory (the value of SPMV_CACHE_DIR) it warm-loads the journal
// there, given "" it is memory-only and nothing touches disk.
func TestNewDefaultEnvAttach(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	cold := newDefault(dir)
	if cold.Store() == nil {
		t.Fatal("default session given a dir opened no journal")
	}
	if _, err := cold.Auto(testMatrix(), selector.AutoOptions{}); err != nil {
		t.Fatal(err)
	}
	cold.Close()
	warm := newDefault(dir)
	defer warm.Close()
	a, err := warm.Auto(testMatrix(), selector.AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Choice().Cached || warm.Store().Stats().Appended != 0 {
		t.Fatalf("restart on the same dir: cached=%v, %d appended; want a warm hit and no append",
			a.Choice().Cached, warm.Store().Stats().Appended)
	}

	// Without a dir: no store, and the would-be default location (the
	// user cache dir, redirected here) stays empty.
	home := t.TempDir()
	t.Setenv("HOME", home)
	t.Setenv("XDG_CACHE_HOME", filepath.Join(home, ".cache"))
	mem := newDefault("")
	if mem.Store() != nil {
		t.Fatal("default session without SPMV_CACHE_DIR has a store")
	}
	if _, err := mem.Auto(testMatrix(), selector.AutoOptions{}); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(home); len(ents) != 0 {
		t.Fatalf("memory-only default session touched disk: %v", ents)
	}
}

// TestPersistReinvokeNoDuplicates: re-invoking Persist (config reload)
// must neither stack a second copy of every sample into the k-NN vote nor
// journal the decisions the journal already holds.
func TestPersistReinvokeNoDuplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for fp := uint64(1); fp <= 2; fp++ {
		s.Cache().Put(cache.DecisionKey{Fingerprint: fp, Device: "host", K: 8},
			cache.Decision{Format: "ELL", Probed: true, FV: core.FeatureVector{Rows: int(fp), NNZ: 9}})
	}
	if err := s.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if votes, _ := s.Cache().Samples("host", 8); len(votes) != 2 {
		t.Fatalf("after re-Persist the vote reads %d samples, want 2 (journal contents, not stacked copies)", len(votes))
	}
	if n := s.Store().Stats().Appended; n != 0 {
		t.Fatalf("re-Persist appended %d lines the journal already held", n)
	}
}

// TestNoCacheTuneRecordsNothing: NoCache means nothing is looked up or
// recorded, probed decisions included — a NoCache, probing build on a
// journaled session leaves the cache empty and the journal untouched, so
// the next one observes the full pipeline again.
func TestNoCacheTuneRecordsNothing(t *testing.T) {
	s, err := New(Options{CacheDir: t.TempDir(), K: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := matrix.Random(4000, 4000, 0.003, 5) // above the probe's timing floor
	for i := 0; i < 2; i++ {
		if _, err := s.Auto(m, selector.AutoOptions{NoCache: true, Probe: true}); err != nil {
			t.Fatal(err)
		}
	}
	if n, appended := s.Cache().Len(), s.Store().Stats().Appended; n != 0 || appended != 0 {
		t.Fatalf("NoCache builds left %d cached decisions and %d journal lines, want none", n, appended)
	}
}

// A session without a cache dir is memory-only but fully functional.
func TestMemoryOnlySession(t *testing.T) {
	s, err := New(Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Store() != nil {
		t.Fatal("memory-only session has a store")
	}
	a, err := s.Auto(testMatrix(), selector.AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The session's default K threads into selection context.
	if a.Choice().K != 4 {
		t.Fatalf("session default K not applied: %+v", a.Choice())
	}
	if s.Cache().Len() == 0 {
		t.Fatal("memory-only session cached nothing")
	}
}

// An updatable built under a session re-selects under that session's
// state, not the default session's.
func TestSessionUpdatable(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	defaultBefore := Default().Cache().Len()
	u, err := s.NewUpdatable(testMatrix(), update.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u.Set(0, 0, 1.25)
	y := make([]float64, 300)
	x := make([]float64, 300)
	x[0] = 2
	u.SpMV(x, y)
	if y[0] < 2.49 || y[0] > 2.51 {
		t.Fatalf("y[0] = %v, want 2.5", y[0])
	}
	if got := Default().Cache().Len(); got != defaultBefore {
		t.Fatalf("session updatable grew the default decision cache: %d -> %d", defaultBefore, got)
	}
}

// TestSessionUpdatableKeepsShardKey: every decision an updatable built under
// a session makes — the initial build's and each compaction's re-selection
// — lands in that session's cache and journal, never in the default
// session's.
func TestSessionUpdatableKeepsShardKey(t *testing.T) {
	d := Default()
	defaultBefore := d.Cache().Len()
	s, err := New(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := testMatrix()
	u, err := s.NewUpdatable(m, update.Options{NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	initial, _ := s.Cache().Decisions()
	if len(initial) != 1 || initial[0].Fingerprint != m.Fingerprint() {
		t.Fatalf("the initial build journaled %+v, want one decision for the matrix", initial)
	}
	u.Set(0, 0, 1.25)
	if err := u.Compact(); err != nil {
		t.Fatal(err)
	}
	// The re-selection invalidated the initial build's decision (the base
	// it chose for is gone) and journaled its own: two lines, one live.
	reselected, _ := s.Cache().Decisions()
	if len(reselected) != 1 || reselected[0] == initial[0] || s.Store().Stats().Appended != 2 {
		t.Fatalf("journaled %+v then %+v (%d appended), want the initial build's decision replaced by the re-selection's",
			initial, reselected, s.Store().Stats().Appended)
	}
	if _, ok := s.Cache().Get(reselected[0]); !ok {
		t.Errorf("the re-selection's decision %+v is not in the session's cache", reselected[0])
	}
	for _, k := range append(initial, reselected...) {
		if _, ok := d.Cache().Get(k); ok {
			t.Errorf("decision %+v reached the default session's cache", k)
		}
	}
	if got := d.Cache().Len(); got != defaultBefore {
		t.Errorf("the session's updatable grew the default decision cache: %d -> %d", defaultBefore, got)
	}
}
