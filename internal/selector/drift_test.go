package selector_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/session"
)

// TestLiveMatchesReopened: whatever a session went through — a drift
// re-selection, samples aging behind other regimes' measurements, a
// NoCache probed build, a Persist onto a journal after decisions made in
// memory — its k-NN pick and its held decisions (keys, order, values)
// equal those of a fresh session opened on the same directory.
func TestLiveMatchesReopened(t *testing.T) {
	near := func(rows int) core.FeatureVector {
		return core.FeatureVector{Rows: rows, Cols: 20000, NNZ: 240000, AvgNNZPerRow: 12, SkewCoeff: 9}
	}
	sample := func(rows int, best string) cache.Decision {
		return cache.Decision{Format: best, Probed: true, FV: near(rows)}
	}
	key := func(fp uint64, k int) cache.DecisionKey {
		return cache.DecisionKey{Fingerprint: fp, Device: "host", K: k}
	}
	open := func(t *testing.T, dir string) *session.Session {
		t.Helper()
		s, err := session.New(session.Options{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	generate := func(t *testing.T, seed int64) *matrix.CSR {
		t.Helper()
		m, err := gen.Generate(gen.Params{
			Rows: 20000, Cols: 20000, AvgNNZPerRow: 12, StdNNZPerRow: 4,
			SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// agree compares the live session with a fresh one on its directory,
	// voting for fv in the (host, k) regime, and returns the live pick.
	agree := func(t *testing.T, live *session.Session, dir string, k int, fv core.FeatureVector) string {
		t.Helper()
		fresh := open(t, dir)
		lk, ld := live.Cache().Decisions()
		fk, fd := fresh.Cache().Decisions()
		if !slices.Equal(lk, fk) || !slices.Equal(ld, fd) {
			t.Errorf("live holds %+v %+v,\nreopened %+v %+v", lk, ld, fk, fd)
		}
		lp, lok := selector.Vote(live.Cache(), "host", k, fv)
		fp, fok := selector.Vote(fresh.Cache(), "host", k, fv)
		if lp != fp || lok != fok {
			t.Errorf("live pick %q (%v), reopened pick %q (%v)", lp, lok, fp, fok)
		}
		return lp
	}

	t.Run("reselect", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		m1, m2 := generate(t, 1), generate(t, 2)
		if a, err := s.Auto(m1, selector.AutoOptions{K: 8, Probe: true}); err != nil || !a.Choice().Probed {
			t.Fatalf("the first build did not probe: %v", err)
		}
		o := selector.AutoOptions{K: 8, Probe: true, Cache: s.Cache()}
		if _, _, err := selector.ReselectCtx(context.Background(), m1.Fingerprint(), m2, o); err != nil {
			t.Fatal(err)
		}
		agree(t, s, dir, 8, core.Extract(m1))
	})
	t.Run("aging", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		c := s.Cache()
		c.Put(key(1, 8), sample(20000, "COO"))
		c.Put(key(2, 8), sample(20001, "COO"))
		for i := 0; i < 3*256; i++ {
			c.Put(key(uint64(100+i), 1), sample(30000+i, "COO"))
		}
		c.Put(key(3, 8), sample(20002, "HYB"))
		if got := agree(t, s, dir, 8, near(20000)); got != "HYB" {
			t.Errorf("pick %q, want the fresh HYB over the aged COO majority", got)
		}
	})
	t.Run("nocache", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		m := generate(t, 3)
		a, err := s.Auto(m, selector.AutoOptions{K: 8, Probe: true, NoCache: true})
		if err != nil || !a.Choice().Probed {
			t.Fatalf("the build did not probe: %v", err)
		}
		if got := agree(t, s, dir, 8, core.Extract(m)); got != "" {
			t.Errorf("a NoCache build left a vote for %q", got)
		}
	})
	t.Run("persist", func(t *testing.T) {
		dir := t.TempDir()
		// A journal another session wrote.
		prior := open(t, dir)
		prior.Cache().Put(key(1, 8), sample(20000, "COO"))
		prior.Cache().Put(key(2, 8), sample(20001, "BCSR"))
		prior.Cache().Put(key(3, 1), cache.Decision{Format: "CSR5"})
		prior.Close()
		// Decisions made in memory first: a new one, one the journal holds
		// already and one that changes the journal's.
		s, err := session.New(session.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Cache().Put(key(4, 8), sample(20002, "HYB"))
		s.Cache().Put(key(3, 1), cache.Decision{Format: "CSR5"})
		s.Cache().Put(key(2, 8), sample(20001, "SELL-C-s"))
		if err := s.Persist(dir); err != nil {
			t.Fatal(err)
		}
		agree(t, s, dir, 8, near(20001))
	})
}
