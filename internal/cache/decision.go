// Package cache is what selection remembers: one Decision per (matrix,
// device, k) — the format, whether a micro-probe measured it and, when the
// build could learn, the feature vector that makes the decision a k-NN
// sample — held once, in a DecisionCache, and, when a Store is attached, in
// an append-only JSONL journal (store.go) that a restarted process loads,
// so it neither re-ranks nor re-probes a matrix its predecessors measured.
package cache

import (
	"math"
	"slices"
	"sync"

	"repro/internal/core"
)

// DecisionKey identifies one auto-format decision context. A decision is
// only reusable when everything that influenced it recurs: the sparsity
// structure (matrix fingerprint), the device the ranking targeted and the
// RHS-count regime (k = 1 and k = 8 rank formats differently). The
// dispatch level is not part of the key — the journal scopes records to
// the level they were measured under (simd.Level()), and a process
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
	// FV is the matrix's feature vector when a micro-probe backed the
	// choice and the build was allowed to learn: (FV, Format) is then a
	// labelled sample of the k-NN vote (DecisionCache.Samples). The zero
	// value means the decision carries no sample.
	FV core.FeatureVector
}

const (
	// DefaultDecisionCap bounds what a DecisionCache holds — and, through
	// compaction, the journal behind it: a server seeing an endless stream
	// of distinct matrices must not grow either without bound. Past it the
	// oldest measurement goes.
	DefaultDecisionCap = 16384

	// voteWindow is how many of a regime's sample-carrying decisions the
	// k-NN vote reads, newest first: a working set of measurements, not
	// every probe a long-lived server ever ran.
	voteWindow = 2048

	// sampleHalfLife is the age, in sample-carrying decisions of any regime
	// measured since, at which a sample's vote weight halves. A superseding
	// decision is the newest measurement, so a winner measured 256 probes
	// ago — possibly under different load, thermals, or a since-changed
	// kernel — still votes, but two fresh confirmations outvote it.
	sampleHalfLife = 256
)

// DecisionCache is the one place a decision lives: a map plus the order
// the decisions were measured in (a superseding decision moves to the
// end), bounded at DefaultDecisionCap. It serves lookups, the journal
// (Attach: every Put appends, Compact rewrites from it) and the k-NN vote
// (Samples), so the live process and one reopened on its journal hold the
// same decisions in the same order. Safe for concurrent use; construct
// with NewDecisionCache.
type DecisionCache struct {
	mu           sync.Mutex
	m            map[DecisionKey]Decision
	order        []DecisionKey // oldest measurement first
	cap          int
	store        *Store
	hits, misses uint64
}

// NewDecisionCache returns an empty decision cache bounded at
// DefaultDecisionCap entries.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{m: make(map[DecisionKey]Decision), cap: DefaultDecisionCap}
}

// Get returns the decision for the key, if any. A lookup is not a
// measurement: it leaves the order alone.
func (c *DecisionCache) Get(k DecisionKey) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return d, ok
}

// setLocked makes d the newest decision for k and reports whether that
// changed anything (an identical re-put does not, and keeps its place) and
// how many held decisions it displaced: the one it superseded and the
// oldest ones past the bound — each a dead line in an attached journal.
func (c *DecisionCache) setLocked(k DecisionKey, d Decision) (changed bool, displaced int) {
	if prev, ok := c.m[k]; ok {
		if prev == d {
			return false, 0
		}
		i := slices.Index(c.order, k)
		c.order = slices.Delete(c.order, i, i+1)
		displaced++
	}
	c.m[k] = d
	c.order = append(c.order, k)
	for len(c.order) > c.cap {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
		displaced++
	}
	return true, displaced
}

// putLocked is Put under c.mu: a changed decision is journaled when a
// store is attached. The append happens under the cache lock, so the
// journal's last-line-wins order always matches the held order of
// concurrent Puts (lock order is cache -> store; the store never calls
// back into the cache).
func (c *DecisionCache) putLocked(k DecisionKey, d Decision) {
	if changed, displaced := c.setLocked(k, d); changed && c.store != nil {
		c.store.appendDecision(k, d, displaced)
	}
}

// Put stores (or replaces) the decision for the key as the newest
// measurement, journaling it when a store is attached, and compacts the
// journal once enough of its lines are dead. Compaction holds the lock: it
// is rare, and no Put may land between the rewrite's snapshot and its
// rename.
func (c *DecisionCache) Put(k DecisionKey, d Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, d)
	if c.store != nil && c.store.needsCompact() {
		_ = c.store.compact(c.order, c.m) // a failure degrades the store, never the Put
	}
}

// Attach binds the cache to an open journal and returns the one it
// replaces (nil when none) for the caller to close. The decisions st
// loaded at Open become the cache's — st hands them over once and keeps
// no copy — and the decisions the cache already held are put over them,
// each the journal lacks appended to it, so the cache then holds exactly
// what a process opening the same journal afresh would. Every later Put
// appends. Attaching nil detaches: the held decisions stay, memory-only.
func (c *DecisionCache) Attach(st *Store) *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.store
	c.store = st
	if st == nil {
		return prev
	}
	held, heldM := c.order, c.m
	c.order, c.m = nil, make(map[DecisionKey]Decision, len(heldM))
	dead := 0
	for _, r := range st.take() {
		changed, displaced := c.setLocked(r.decision())
		dead += displaced
		if !changed {
			dead++ // a line repeating the held decision adds nothing
		}
	}
	st.loadedAs(len(c.m), dead)
	for _, k := range held {
		c.putLocked(k, heldM[k])
	}
	return prev
}

// Compact rewrites the attached journal to hold exactly the cache's
// decisions, oldest measurement first (see Store for what a failure
// does). Without a store it is a no-op.
func (c *DecisionCache) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		return nil
	}
	return c.store.compact(c.order, c.m)
}

// Store returns the attached journal, or nil.
func (c *DecisionCache) Store() *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// Len returns the number of held decisions.
func (c *DecisionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Decisions returns the held decisions, oldest measurement first — the
// order compaction writes them in and a reopened journal loads them in.
func (c *DecisionCache) Decisions() (keys []DecisionKey, decs []Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys = slices.Clone(c.order)
	decs = make([]Decision, len(keys))
	for i, k := range keys {
		decs[i] = c.m[k]
	}
	return keys, decs
}

// Stats returns the cumulative hit and miss counts.
func (c *DecisionCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Samples returns the (device, k) regime's k-NN vote: its sample-carrying
// decisions, newest first, at most voteWindow of them, each with the
// weight of its vote, 2^(-age/sampleHalfLife), where age counts the
// sample-carrying decisions of every regime measured since. Stale history
// biases — never dictates — a shortlist.
func (c *DecisionCache) Samples(device string, k int) (decs []Decision, weights []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	age := 0
	for i := len(c.order) - 1; i >= 0 && len(decs) < voteWindow; i-- {
		key := c.order[i]
		d := c.m[key]
		if d.FV == (core.FeatureVector{}) {
			continue
		}
		if key.Device == device && key.K == k {
			decs = append(decs, d)
			weights = append(weights, math.Exp2(-float64(age)/sampleHalfLife))
		}
		age++
	}
	return decs, weights
}

// InvalidateFingerprint drops every decision for the fingerprint, across
// all (device, k) contexts at once — when a matrix's structure drifts,
// every regime's ranking and sample of the dead structure drifts
// with it. Returns how many decisions were dropped. An attached journal
// is compacted at once (a failure degrades it): its append-only lines
// would otherwise bring the dropped decisions back on a restart, and a
// reopened journal must hold what the live cache holds.
func (c *DecisionCache) InvalidateFingerprint(fp uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.order)
	c.order = slices.DeleteFunc(c.order, func(k DecisionKey) bool {
		if k.Fingerprint != fp {
			return false
		}
		delete(c.m, k)
		return true
	})
	n -= len(c.order)
	if n > 0 && c.store != nil {
		_ = c.store.compact(c.order, c.m)
	}
	return n
}
