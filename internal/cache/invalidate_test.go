package cache

import "testing"

// TestInvalidateFingerprint: drift invalidation drops every regime of the
// fingerprint and nothing else, and keeps the measurement order
// consistent.
func TestInvalidateFingerprint(t *testing.T) {
	t.Run("decision", func(t *testing.T) { testInvalidateFingerprint(t, decisionCase()) })
	t.Run("tune", func(t *testing.T) { testInvalidateFingerprint(t, tuneCase()) })
}

func testInvalidateFingerprint(t *testing.T, tc lruCase) {
	c, key, v := NewDecisionCache(), tc.key, tc.vals
	c.Put(key(1, 0), v[0])
	c.Put(key(1, 7), v[1])
	c.Put(key(1, 3), v[2])
	c.Put(key(2, 0), v[1])

	if n := c.InvalidateFingerprint(1); n != 3 {
		t.Fatalf("dropped %d entries, want 3", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	if _, ok := c.Get(key(1, 0)); ok {
		t.Fatal("invalidated entry still served")
	}
	if got, ok := c.Get(key(2, 0)); !ok || got != v[1] {
		t.Fatal("unrelated fingerprint was dropped")
	}
	if n := c.InvalidateFingerprint(99); n != 0 {
		t.Fatalf("unknown fingerprint dropped %d", n)
	}
	// The survivor and a newcomer keep their measurement order.
	c.Put(key(3, 0), v[2])
	if keys, _ := c.Decisions(); len(keys) != 2 || keys[0] != key(2, 0) || keys[1] != key(3, 0) {
		t.Fatalf("cache holds %+v, want fingerprints 2 then 3", keys)
	}
}

// TestInvalidateReachesJournal: invalidation rewrites the journal at once,
// so a restart resurrects neither the decisions nor their samples.
func TestInvalidateReachesJournal(t *testing.T) {
	c, st, dir := tempCache(t)
	tc := tuneCase()
	c.Put(tc.key(1, 0), tc.vals[2])
	c.Put(tc.key(1, 7), tc.vals[1])
	c.Put(tc.key(2, 0), tc.vals[2])
	c.InvalidateFingerprint(1)
	if got := st.Stats().Dead; got != 0 {
		t.Errorf("dead lines = %d after invalidation, want the journal rewritten", got)
	}
	st.Close()

	re, _ := attached(t, dir)
	keys, decs := re.Decisions()
	if len(keys) != 1 || keys[0] != tc.key(2, 0) || decs[0] != tc.vals[2] {
		t.Fatalf("reopened journal holds %+v %+v, want only fingerprint 2", keys, decs)
	}
}
