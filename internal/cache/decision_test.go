package cache

import (
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
// carries: three distinguishable values, bare ("decision") or with tuning
// and a sample riding along ("tune").
type lruCase struct{ vals [3]Decision }

func decisionCase() lruCase {
	return lruCase{vals: [3]Decision{{Format: "CSR5"}, {Format: "COO"}, {Format: "ELL"}}}
}

func tuneCase() lruCase {
	fv := core.FeatureVector{Rows: 9, Cols: 9, NNZ: 27, AvgNNZPerRow: 3}
	return lruCase{vals: [3]Decision{
		{Format: "BCSR", Tuned: "bcsr.block=2x2"},
		{Format: "BCSR", Tuned: "bcsr.block=4x4 spmm.tile=8"},
		{Format: "BCSR", Probed: true, Tuned: "bcsr.block=4x4 spmm.tile=8", FV: fv},
	}}
}

// key is the decision key of (fingerprint, regime) in these tests.
func (lruCase) key(fp uint64, regime int) DecisionKey {
	return DecisionKey{Fingerprint: fp, Device: "host", K: 1 + regime}
}

// TestDecisionCacheLRUBound pins the memory bound of a long-running
// server: the cache must never exceed its cap, must evict in
// least-recently-used order, and Get must count as a use.
func TestDecisionCacheLRUBound(t *testing.T) {
	t.Run("decision", func(t *testing.T) { testLRUBound(t, decisionCase()) })
	t.Run("tune", func(t *testing.T) { testLRUBound(t, tuneCase()) })
}

func testLRUBound(t *testing.T, tc lruCase) {
	c, key := NewDecisionCache(), func(fp uint64) DecisionKey { return tc.key(fp, 0) }
	if c.Cap() != DefaultDecisionCap {
		t.Fatalf("default cap = %d, want %d", c.Cap(), DefaultDecisionCap)
	}
	c.SetCap(3)
	for i := uint64(0); i < 3; i++ {
		c.Put(key(i), tc.vals[0])
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	c.Put(key(3), tc.vals[1])
	if c.Len() != 3 {
		t.Fatalf("len = %d past cap 3", c.Len())
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("key 1 should have been evicted (least recently used)")
	}
	for _, i := range []uint64{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("key %d should have survived", i)
		}
	}
	if c.Evicted() != 1 {
		t.Errorf("evicted = %d, want 1", c.Evicted())
	}
	// Shrinking the cap evicts immediately; restoring the default re-opens
	// headroom.
	c.SetCap(1)
	if c.Len() != 1 {
		t.Errorf("len = %d after shrink to 1", c.Len())
	}
	if prev := c.SetCap(0); prev != 1 {
		t.Errorf("SetCap returned %d, want 1", prev)
	}
	if c.Cap() != DefaultDecisionCap {
		t.Errorf("cap = %d, want default restored", c.Cap())
	}
	// Re-putting an existing key must not grow the count.
	c.Put(key(3), tc.vals[2])
	if v, _ := c.Get(key(3)); v != tc.vals[2] {
		t.Errorf("re-put did not replace: %+v", v)
	}
}

// TestDecisionCacheEvictionKeepsJournal: eviction trims memory only — an
// evicted decision must still re-load from the attached journal on the
// next restart.
func TestDecisionCacheEvictionKeepsJournal(t *testing.T) {
	st, dir := tempStore(t)
	c := NewDecisionCache()
	c.SetCap(2)
	c.AttachStore(st)
	for i := 0; i < 5; i++ {
		c.Put(dk(uint64(i), 1), Decision{Format: "CSR5"})
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	st.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	keys, _ := re.Decisions()
	if len(keys) != 5 {
		t.Fatalf("journal kept %d decisions, want all 5 despite eviction", len(keys))
	}
	// A fresh cache warm-loads the most recent ones within its cap.
	c2 := NewDecisionCache()
	c2.SetCap(2)
	if n := c2.AttachStore(re); n != 5 {
		t.Fatalf("warm-load reported %d, want 5", n)
	}
	if c2.Len() != 2 {
		t.Fatalf("warm-loaded len = %d, want cap 2", c2.Len())
	}
	for _, i := range []int{3, 4} {
		if _, ok := c2.Get(dk(uint64(i), 1)); !ok {
			t.Errorf("newest key %d should have survived the capped warm-load", i)
		}
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
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Error("no entries survived")
	}
}
