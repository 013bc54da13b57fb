package cache

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestDecisionCacheBasics(t *testing.T) {
	c := NewDecisionCache()
	key := DecisionKey{Fingerprint: 42, Device: "host", K: 8}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put(key, Decision{Format: "SELL-C-s", Probed: true})
	d, ok := c.Get(key)
	if !ok || d.Format != "SELL-C-s" || !d.Probed {
		t.Fatalf("got %+v ok=%v", d, ok)
	}
	// Every key component separates decisions.
	variants := []DecisionKey{
		{Fingerprint: 43, Device: "host", K: 8},
		{Fingerprint: 42, Device: "AMD-EPYC-24", K: 8},
		{Fingerprint: 42, Device: "host", K: 1},
	}
	for _, v := range variants {
		if _, ok := c.Get(v); ok {
			t.Errorf("key %+v should not alias the stored decision", v)
		}
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 4 {
		t.Errorf("stats = %d hits / %d misses, want 1/4", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

// lruCase is one row of the tests that hold for whatever a decision
// carries: three distinguishable values, bare ("decision") or probed and
// with a sample riding along ("tune").
type lruCase struct{ vals [3]Decision }

func decisionCase() lruCase {
	return lruCase{vals: [3]Decision{{Format: "CSR5"}, {Format: "COO"}, {Format: "ELL"}}}
}

func tuneCase() lruCase {
	fv := core.FeatureVector{Rows: 9, Cols: 9, NNZ: 27, AvgNNZPerRow: 3}
	return lruCase{vals: [3]Decision{
		{Format: "BCSR"},
		{Format: "BCSR", Probed: true},
		{Format: "BCSR", Probed: true, FV: fv},
	}}
}

// key is the decision key of (fingerprint, regime) in these tests.
func (lruCase) key(fp uint64, regime int) DecisionKey {
	return DecisionKey{Fingerprint: fp, Device: "host", K: 1 + regime}
}

// TestDecisionCacheLRUBound pins the memory bound of a long-running
// server: the cache never exceeds its cap and evicts the least recently
// measured decision — a Get is not a measurement, a changed re-put is, an
// identical one is not.
func TestDecisionCacheLRUBound(t *testing.T) {
	t.Run("decision", func(t *testing.T) { testLRUBound(t, decisionCase()) })
	t.Run("tune", func(t *testing.T) { testLRUBound(t, tuneCase()) })
}

func testLRUBound(t *testing.T, tc lruCase) {
	c, key := NewDecisionCache(), func(fp uint64) DecisionKey { return tc.key(fp, 0) }
	if c.cap != DefaultDecisionCap {
		t.Fatalf("default cap = %d, want %d", c.cap, DefaultDecisionCap)
	}
	c.cap = 3
	for i := uint64(0); i < 3; i++ {
		c.Put(key(i), tc.vals[0])
	}
	// Reading key 0 does not save it; re-measuring key 1 does.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	c.Put(key(1), tc.vals[1])
	c.Put(key(3), tc.vals[1])
	if c.Len() != 3 {
		t.Fatalf("len = %d past cap 3", c.Len())
	}
	if _, ok := c.Get(key(0)); ok {
		t.Error("key 0 should have been evicted (oldest measurement)")
	}
	for _, i := range []uint64{1, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("key %d should have survived", i)
		}
	}
	// An identical re-put is no new measurement: key 2 stays the oldest.
	c.Put(key(2), tc.vals[0])
	c.Put(key(4), tc.vals[2])
	if _, ok := c.Get(key(2)); ok {
		t.Error("an identical re-put refreshed key 2")
	}
	// Re-putting an existing key must not grow the count.
	c.Put(key(3), tc.vals[2])
	if v, _ := c.Get(key(3)); v != tc.vals[2] || c.Len() != 3 {
		t.Errorf("re-put did not replace in place: %+v, len %d", v, c.Len())
	}
}

// TestDecisionCacheEvictionKeepsJournal: eviction leaves the evicted
// decisions' lines in the journal as dead weight until a compaction, and a
// cache reopening the journal holds the same window — the newest
// decisions.
func TestDecisionCacheEvictionKeepsJournal(t *testing.T) {
	c, st, dir := tempCache(t)
	c.cap = 2
	for i := 0; i < 5; i++ {
		c.Put(dk(uint64(i), 1), Decision{Format: "CSR5"})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if s := st.Stats(); s.Appended != 5 || s.Dead != 3 {
		t.Fatalf("journal: %d appended, %d dead; want 5 and the 3 evicted", s.Appended, s.Dead)
	}
	st.Close()

	re, rs := NewDecisionCache(), Open(dir)
	defer rs.Close()
	re.cap = 2
	re.Attach(rs)
	if s := rs.Stats(); s.Decisions != 2 || s.Dead != 3 {
		t.Fatalf("reopened: %d decisions, %d dead; want 2 and 3", s.Decisions, s.Dead)
	}
	keys, _ := re.Decisions()
	if len(keys) != 2 || keys[0] != dk(3, 1) || keys[1] != dk(4, 1) {
		t.Errorf("reopened window = %+v, want the newest keys 3 and 4", keys)
	}
}

// TestSamplesVote: the vote reads a regime's sample-carrying decisions
// newest first, at most voteWindow of them, each weighted by its age in
// samples of every regime measured since; a decision without a sample
// neither votes nor ages the others.
func TestSamplesVote(t *testing.T) {
	c := NewDecisionCache()
	fv := func(i int) core.FeatureVector { return core.FeatureVector{Rows: 1 + i} }
	for i := 0; i < voteWindow+10; i++ {
		c.Put(dk(uint64(i), 1), Decision{Format: "A", FV: fv(i)})
	}
	c.Put(dk(1<<20, 8), Decision{Format: "B", FV: fv(1 << 20)})
	c.Put(dk(1<<21, 1), Decision{Format: "bare"})
	decs, w := c.Samples("host", 1)
	if len(decs) != voteWindow || decs[0].FV != fv(voteWindow+9) {
		t.Fatalf("vote read %d samples starting at %+v, want %d starting at the newest", len(decs), decs[0].FV, voteWindow)
	}
	// Sample j has age j+1: the k = 8 sample was measured after all of them.
	if w[0] != math.Exp2(-1.0/sampleHalfLife) || w[sampleHalfLife-1] != 0.5 {
		t.Errorf("weights %v, %v; want 2^(-1/%d) and 0.5", w[0], w[sampleHalfLife-1], sampleHalfLife)
	}
	if decs, w := c.Samples("host", 8); len(decs) != 1 || w[0] != 1 {
		t.Errorf("k = 8 vote = %+v %v, want the one full-weight sample", decs, w)
	}
	if decs, _ := c.Samples("other", 1); len(decs) != 0 {
		t.Errorf("another device's vote read %d samples", len(decs))
	}
}

func TestDecisionCacheConcurrent(t *testing.T) {
	t.Run("decision", func(t *testing.T) { testLRUConcurrent(t, decisionCase()) })
	t.Run("tune", func(t *testing.T) { testLRUConcurrent(t, tuneCase()) })
}

func testLRUConcurrent(t *testing.T, tc lruCase) {
	c := NewDecisionCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := tc.key(uint64(i%16), g%3)
				c.Put(k, tc.vals[0])
				c.Get(k)
				c.Samples("host", 1+g%3)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Error("no entries survived")
	}
}
