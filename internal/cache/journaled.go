package cache

import (
	"container/list"
	"sync"
)

// journalKey is what the LRU needs from a key type: map identity and the
// matrix fingerprint every record is scoped to (InvalidateFingerprint).
type journalKey interface {
	comparable
	fingerprint() uint64
}

// lruEntry is one LRU node payload.
type lruEntry[K journalKey, V any] struct {
	key K
	val V
}

// journaledLRU is the one concurrency-safe, LRU-bounded, optionally
// journal-backed map behind DecisionCache and TuneCache. The zero value is
// not usable; the named caches construct it. A plain mutex guards all
// state: every operation (including Get, which bumps recency and the
// hit/miss counters) writes, so a reader/writer lock would buy nothing.
type journaledLRU[K journalKey, V any] struct {
	mu      sync.Mutex
	m       map[K]*list.Element // value: *lruEntry[K, V]
	lru     *list.List          // front = most recently used
	cap     int
	defCap  int
	hits    uint64
	misses  uint64
	evicted uint64
	store   *Store

	// load and journal are the instantiation's two store bindings: the
	// records a freshly attached store warm-loads (journal order, oldest
	// first), and the append of one Put.
	load    func(*Store) ([]K, []V)
	journal func(*Store, K, V)
}

func (c *journaledLRU[K, V]) init(defCap int, load func(*Store) ([]K, []V), journal func(*Store, K, V)) {
	c.m = make(map[K]*list.Element)
	c.lru = list.New()
	c.cap, c.defCap = defCap, defCap
	c.load, c.journal = load, journal
}

// SetCap changes the eviction bound. n <= 0 restores the default cap.
// Shrinking evicts least-recently-used entries immediately. Returns the
// previous cap.
func (c *journaledLRU[K, V]) SetCap(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.cap
	if n <= 0 {
		n = c.defCap
	}
	c.cap = n
	c.evictLocked()
	return prev
}

// Cap returns the current eviction bound.
func (c *journaledLRU[K, V]) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// evictLocked drops least-recently-used entries until len <= cap.
func (c *journaledLRU[K, V]) evictLocked() {
	for len(c.m) > c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		delete(c.m, back.Value.(*lruEntry[K, V]).key)
		c.lru.Remove(back)
		c.evicted++
	}
}

// Get returns the cached value for the key, if any, marking it most
// recently used.
func (c *journaledLRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// setLocked stores (or replaces) one entry at the front of the LRU
// without evicting.
func (c *journaledLRU[K, V]) setLocked(k K, v V) {
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.lru.MoveToFront(el)
		return
	}
	c.m[k] = c.lru.PushFront(&lruEntry[K, V]{key: k, val: v})
}

// Put stores (or replaces) the value for the key, journaling it when a
// store is attached and evicting the least-recently-used entry past the
// cap. Eviction only trims memory: the journal keeps the record for the
// next restart. The journal append happens under the cache lock so the
// journal's last-line-wins order always matches the in-memory winner of
// concurrent Puts (lock order is cache -> store; the store never calls
// back into the cache).
func (c *journaledLRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	c.setLocked(k, v)
	c.evictLocked()
	st := c.store
	if st != nil {
		c.journal(st, k, v)
	}
	c.mu.Unlock()
	// Compaction (a journal rewrite with fsync) runs outside c.mu so it
	// never stalls concurrent Gets; the append order above is already
	// journaled, and a rewrite is content-neutral.
	if st != nil && st.NeedsCompact() {
		_ = st.Compact()
	}
}

// AttachStore binds the cache to an open journal: the store's records
// warm-load into memory (newest-first recency, respecting the cap) and
// every subsequent Put appends to the journal. Returns how many records
// were warm-loaded. Attaching a nil store detaches.
func (c *journaledLRU[K, V]) AttachStore(st *Store) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
	if st == nil {
		return 0
	}
	keys, vals := c.load(st)
	for i, k := range keys { // journal order: oldest first, so newest end up at the front
		c.setLocked(k, vals[i])
	}
	c.evictLocked()
	return len(keys)
}

// Store returns the attached journal, or nil.
func (c *journaledLRU[K, V]) Store() *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// Len returns the number of cached entries.
func (c *journaledLRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the cumulative hit and miss counts.
func (c *journaledLRU[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evicted returns how many entries the LRU bound has dropped.
func (c *journaledLRU[K, V]) Evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// InvalidateFingerprint drops every cached entry for the fingerprint,
// across all (device, k, ...) contexts at once — when a matrix's
// structure drifts, every regime's ranking of the dead structure drifts
// with it. Returns how many entries were dropped. Only memory is touched:
// journaled records for the dead fingerprint stay on disk and replay
// harmlessly (the drifted matrix hashes to a different fingerprint, so
// nothing ever looks the stale entries up) until a journal compaction
// rewrites them away.
func (c *journaledLRU[K, V]) InvalidateFingerprint(fp uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, el := range c.m {
		if k.fingerprint() == fp {
			delete(c.m, k)
			c.lru.Remove(el)
			n++
		}
	}
	return n
}

// Clear drops every cached entry and resets the counters. The attached
// journal, if any, is untouched: Clear empties memory, not history.
func (c *journaledLRU[K, V]) Clear() {
	c.mu.Lock()
	c.m = make(map[K]*list.Element)
	c.lru.Init()
	c.hits, c.misses, c.evicted = 0, 0, 0
	c.mu.Unlock()
}
