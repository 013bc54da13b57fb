package cache

import "testing"

// TestInvalidateFingerprint: drift invalidation drops every regime of the
// fingerprint and nothing else, and keeps the LRU list consistent.
func TestInvalidateFingerprint(t *testing.T) {
	t.Run("decision", func(t *testing.T) { testInvalidateFingerprint(t, decisionCase()) })
	t.Run("tune", func(t *testing.T) { testInvalidateFingerprint(t, tuneCase()) })
}

func testInvalidateFingerprint[K journalKey, V comparable](t *testing.T, tc lruCase[K, V]) {
	c, key, v := tc.c, tc.key, tc.vals
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
	// The survivor must still cycle through the LRU without issue.
	c.Put(key(3, 0), v[2])
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
}
