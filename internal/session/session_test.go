package session

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/topo"
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
	keysA, _ := sa.Store().Decisions()
	if len(keysA) == 0 {
		t.Fatal("session A journaled nothing")
	}
	keysB, _ := sb.Store().Decisions()
	if len(keysB) != 0 {
		t.Fatalf("session A's decision leaked into session B's journal (%d entries)", len(keysB))
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

// Sessions never touch the default session's state: decisions go to the
// session cache and probe outcomes feed the session's experience base,
// not Default()'s.
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
		if s.Learned().Len(ch.Device, ch.K) == 0 {
			t.Fatal("probe outcome missing from the session's experience base")
		}
		if got := d.Learned().Len(ch.Device, ch.K); got != 0 {
			t.Fatalf("probe outcome leaked into the default experience base: %d", got)
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

// TestPersistReinvokeNoDuplicates: re-invoking Persist (config reload,
// directory switch) must re-baseline the experience base to the journal,
// not stack a second copy of every sample into the k-NN vote.
func TestPersistReinvokeNoDuplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Store()
	for fp := uint64(1); fp <= 2; fp++ {
		st.AppendDecision(cache.DecisionKey{Fingerprint: fp, Device: "host", K: 8, Shards: 1},
			cache.Decision{Format: "ELL", Probed: true, FV: core.FeatureVector{Rows: int(fp), NNZ: 9}})
	}
	if err := s.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if got := s.Learned().Len("host", 8); got != 2 {
		t.Fatalf("after re-Persist the base holds %d samples, want 2 (journal contents, not stacked copies)", got)
	}
}

// TestNoCacheTuneRecordsNothing: NoCache means nothing is looked up or
// recorded, tunes included — a NoCache, Tune build on a journaled session
// leaves the cache empty and the journal untouched, so the next one
// observes the full pipeline again.
func TestNoCacheTuneRecordsNothing(t *testing.T) {
	s, err := New(Options{CacheDir: t.TempDir(), K: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := matrix.Random(4000, 4000, 0.003, 5) // above the sweeps' timing floor
	for i := 0; i < 2; i++ {
		if _, err := s.Auto(m, selector.AutoOptions{NoCache: true, Tune: true}); err != nil {
			t.Fatal(err)
		}
	}
	if n, appended := s.Cache().Len(), s.Store().Stats().Appended; n != 0 || appended != 0 {
		t.Fatalf("NoCache builds left %d cached decisions and %d journal lines, want none", n, appended)
	}
	if keys, _ := s.Store().Decisions(); len(keys) != 0 {
		t.Fatalf("NoCache builds reached the journal's mirror: %+v", keys)
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

// A session's shard context keys every decision made under it: Auto, the
// updatable's initial build, and each compaction's re-selection alike.
func TestSessionUpdatableKeepsShardKey(t *testing.T) {
	want := topo.Shards() + 2 // never the live count the bug keyed under
	s, err := New(Options{CacheDir: t.TempDir(), Shards: want})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u, err := s.NewUpdatable(testMatrix(), update.Options{NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	initial, _ := s.Store().Decisions()
	u.Set(0, 0, 1.25)
	if err := u.Compact(); err != nil {
		t.Fatal(err)
	}
	// The re-selection invalidated the initial build's decision (the base
	// it chose for is gone) and journaled its own: two lines, one live.
	reselected, _ := s.Store().Decisions()
	if len(initial) != 1 || len(reselected) != 1 || initial[0] == reselected[0] || s.Store().Stats().Appended != 2 {
		t.Fatalf("journaled %+v then %+v (%d appended), want the initial build's decision replaced by the re-selection's",
			initial, reselected, s.Store().Stats().Appended)
	}
	for _, k := range append(initial, reselected...) {
		if k.Shards != want {
			t.Errorf("decision %+v keyed under %d shards, want the session's %d", k, k.Shards, want)
		}
	}
}
