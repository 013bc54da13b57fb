// Package cache is what selection remembers: one Decision per (matrix,
// device, k) — the format, whether a micro-probe measured it, its
// tuned structural parameters and, when the build could learn, the
// feature vector that makes the decision a k-NN sample — held in an
// LRU-bounded DecisionCache and, when a Store is attached, in an
// append-only JSONL journal (store.go) that a restarted process
// warm-loads, so it neither re-ranks, re-probes nor re-tunes a matrix its
// predecessors measured.
package cache

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// DecisionKey identifies one auto-format decision context. A decision is
// only reusable when everything that influenced it recurs: the sparsity
// structure (matrix fingerprint), the device the ranking targeted and the
// RHS-count regime (k = 1 and k = 8 rank formats differently). The
// dispatch level is not part of the key — the journal scopes records to
// the level they were measured under (see EffectiveLevel), and a process
// only ever loads one level's records — and neither is the machine's
// parallelism, which the journal's host fingerprint pins.
type DecisionKey struct {
	Fingerprint uint64 // matrix.CSR.Fingerprint()
	Device      string // device.Spec.Name consulted for the ranking
	K           int    // right-hand-side count the choice targets
}

// Decision is everything selection measured for one key. It is a
// comparable value: an identical re-put is recognised with == and never
// journaled twice.
type Decision struct {
	Format string // chosen format name
	Probed bool   // a micro-probe measurement backed the choice
	// Tuned is the autotuner's measured structural parameters for Format
	// (the pairs formats.AutoChoice.Tuned reports), as space-separated
	// "param=value" sorted by param — "bcsr.block=4x4 spmm.tile=8". Empty
	// when nothing was swept; a Tune build sweeps what is missing, once.
	Tuned string
	// FV is the matrix's feature vector when a micro-probe backed the
	// choice and the build was allowed to learn: (FV, Format) is then a
	// labelled sample of the online k-NN (selector.Learned replays them in
	// journal order). The zero value means the decision carries no sample.
	FV core.FeatureVector
}

// DefaultDecisionCap bounds the in-memory decision cache: a long-running
// server seeing an endless stream of distinct matrices must not grow the
// map without bound. A few thousand entries cover any realistic working set
// of recurring matrices; colder decisions survive in the journal and
// re-warm on the next restart even after eviction.
const DefaultDecisionCap = 4096

// lruEntry is one LRU node payload.
type lruEntry struct {
	key DecisionKey
	val Decision
}

// DecisionCache is a concurrency-safe, LRU-bounded store of auto-format
// decisions, optionally backed by a disk journal (AttachStore) so decisions
// survive process restarts: repeated Auto builds of the same matrix under
// the same (device, k) context skip ranking, probing and tuning
// entirely. The zero value is not usable; construct with NewDecisionCache.
// A plain mutex guards all state: every operation (including Get, which
// bumps recency and the hit/miss counters) writes, so a reader/writer lock
// would buy nothing.
type DecisionCache struct {
	mu      sync.Mutex
	m       map[DecisionKey]*list.Element // value: *lruEntry
	lru     *list.List                    // front = most recently used
	cap     int
	hits    uint64
	misses  uint64
	evicted uint64
	store   *Store
}

// NewDecisionCache returns an empty decision cache bounded at
// DefaultDecisionCap entries.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{
		m:   make(map[DecisionKey]*list.Element),
		lru: list.New(),
		cap: DefaultDecisionCap,
	}
}

// SetCap changes the eviction bound. n <= 0 restores the default cap.
// Shrinking evicts least-recently-used entries immediately. Returns the
// previous cap.
func (c *DecisionCache) SetCap(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.cap
	if n <= 0 {
		n = DefaultDecisionCap
	}
	c.cap = n
	c.evictLocked()
	return prev
}

// Cap returns the current eviction bound.
func (c *DecisionCache) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// evictLocked drops least-recently-used entries until len <= cap.
func (c *DecisionCache) evictLocked() {
	for len(c.m) > c.cap {
		back := c.lru.Back()
		delete(c.m, back.Value.(*lruEntry).key)
		c.lru.Remove(back)
		c.evicted++
	}
}

// Get returns the cached decision for the key, if any, marking it most
// recently used.
func (c *DecisionCache) Get(k DecisionKey) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return Decision{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// setLocked stores (or replaces) one entry at the front of the LRU
// without evicting.
func (c *DecisionCache) setLocked(k DecisionKey, d Decision) {
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry).val = d
		c.lru.MoveToFront(el)
		return
	}
	c.m[k] = c.lru.PushFront(&lruEntry{key: k, val: d})
}

// Put stores (or replaces) the decision for the key, journaling it when a
// store is attached and evicting the least-recently-used entry past the
// cap. Eviction only trims memory: the journal keeps the record for the
// next restart. The journal append happens under the cache lock so the
// journal's last-line-wins order always matches the in-memory winner of
// concurrent Puts (lock order is cache -> store; the store never calls
// back into the cache).
func (c *DecisionCache) Put(k DecisionKey, d Decision) {
	c.mu.Lock()
	c.setLocked(k, d)
	c.evictLocked()
	st := c.store
	if st != nil {
		st.AppendDecision(k, d)
	}
	c.mu.Unlock()
	// Compaction (a journal rewrite with fsync) runs outside c.mu so it
	// never stalls concurrent Gets; the append order above is already
	// journaled, and a rewrite is content-neutral.
	if st != nil && st.NeedsCompact() {
		_ = st.Compact()
	}
}

// AttachStore binds the cache to an open journal: the store's decisions
// warm-load into memory (newest-first recency, respecting the cap) and
// every subsequent Put appends to the journal. Returns how many decisions
// were warm-loaded. Attaching a nil store detaches.
func (c *DecisionCache) AttachStore(st *Store) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
	if st == nil {
		return 0
	}
	keys, decs := st.Decisions()
	for i, k := range keys { // journal order: oldest first, so newest end up at the front
		c.setLocked(k, decs[i])
	}
	c.evictLocked()
	return len(keys)
}

// Store returns the attached journal, or nil.
func (c *DecisionCache) Store() *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// Len returns the number of cached decisions.
func (c *DecisionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the cumulative hit and miss counts.
func (c *DecisionCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evicted returns how many entries the LRU bound has dropped.
func (c *DecisionCache) Evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// InvalidateFingerprint drops every decision for the fingerprint, across
// all (device, k) contexts at once — when a matrix's structure
// drifts, every regime's ranking, tuning and sample of the dead structure
// drifts with it. Returns how many cached entries were dropped. The
// attached store's mirror drops them too and counts their journal lines
// dead: the lines stay in the append-only file (and would replay on a
// restart) until the next compaction, which no longer rewrites them.
func (c *DecisionCache) InvalidateFingerprint(fp uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, el := range c.m {
		if k.Fingerprint == fp {
			delete(c.m, k)
			c.lru.Remove(el)
			n++
		}
	}
	if c.store != nil {
		c.store.invalidateFingerprint(fp)
	}
	return n
}
