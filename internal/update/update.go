// Package update provides Updatable, a mutable sparse matrix for
// dynamic-graph workloads: a read-optimized base (any built
// formats.Format) paired with a concurrent delta overlay, multiplied as
// the base's own dispatch and then the overlay, added on the calling
// goroutine.
//
// The design is epoch/RCU-style. Readers load one immutable snapshot
// pointer — {base format, base CSR, frozen overlay, log floor} — plus the
// published view of the active delta log, and compute base + frozen +
// active without taking any lock. Writers append to the log under one
// short lock that orders every update, so every multiply observes a
// prefix of the total update order (the linearizable-snapshot contract
// the stress tests pin). When the overlay crosses a size threshold, a
// background compactor folds it into a fresh CSR, re-runs automatic
// format selection (structure drift can change the winner; the decision
// journal makes warm re-decisions zero-probe), and swaps the snapshot —
// in-flight multiplies finish on the old epoch.
package update

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
)

// Options configures an Updatable.
type Options struct {
	// K is the right-hand-side regime hint passed to format
	// (re-)selection (0 or 1: single-vector SpMV).
	K int
	// Format pins the base format by registry name. Empty selects
	// automatically, at build time and again after every compaction.
	Format string
	// Probe lets (re-)selection micro-probe its shortlist.
	Probe bool
	// Cache is the decision cache (re-)selection consults and feeds — the
	// owning Session's, so the initial build and every compaction's
	// re-selection share its decisions and its k-NN vote. Nil selects
	// statelessly.
	Cache *cache.DecisionCache
	// MinCompact and CompactRatio override the default compaction trigger
	// (CompactionThreshold) for this matrix; zero keeps the defaults. A
	// background compaction starts when the overlay holds at least
	// max(MinCompact, CompactRatio*base-nnz) entries.
	MinCompact   int
	CompactRatio float64
	// NoAutoCompact disables the threshold trigger; the overlay only
	// folds on an explicit Compact call. Benchmarks measuring overlay
	// cost at a controlled fill use it.
	NoAutoCompact bool
}

// autoOptions is the one place an Updatable's options become the
// selector's: the initial build and every compaction re-select alike.
func (o Options) autoOptions() selector.AutoOptions {
	return selector.AutoOptions{K: o.K, Probe: o.Probe, Cache: o.Cache}
}

// cell addresses one matrix position in the net-delta index.
type cell struct{ r, c int32 }

// logView is the published, effectively-immutable view of the active
// delta log: parallel arrays in update order with strictly ascending
// sequence numbers. Appends extend the backing arrays in place past the
// published length and then publish a longer view — indices below a
// published length are never rewritten, so a reader holding any view sees
// frozen data. The frozen overlay is a view too, with seq nil.
type logView struct {
	seq      []uint64
	row, col []int32
	val      []float64
}

var emptyView = &logView{}

// snapshot is the immutable read surface of one epoch.
type snapshot struct {
	epoch   uint64
	base    formats.Format
	baseCSR *matrix.CSR
	// frozen is an additive overlay (row-sorted, duplicate-free,
	// emptyView outside a freeze) holding every update with
	// floor_prev < seq <= floor that has not yet been folded into baseCSR.
	frozen *logView
	// log is frozen's entries unsummed, sorted with each cell's in
	// sequence order: what the rebuild merges, and a retry after a failed
	// one merges again.
	log *matrix.COO
	// floor is the highest update sequence number folded into
	// baseCSR+frozen; active log entries with seq <= floor are stale.
	floor uint64
}

// Updatable is a concurrently updatable sparse matrix. All methods are
// safe for concurrent use; multiplies never block on updates or
// compaction.
type Updatable struct {
	formats.Delegates
	opts Options

	// mu orders every update. Under it a writer resolves its cell, takes
	// the next sequence number and publishes the longer log view, so every
	// published view is a prefix of the update order.
	mu  sync.Mutex
	seq uint64 // the last sequence number issued
	// net holds the value of each cell the entries not yet in the base
	// touch: the base value with the entries added on in order, what the
	// next rebuild merges it to. Set, Delete and At resolve against it.
	// Kept across the freeze and cut to the active log's cells when a
	// rebuilt base publishes.
	net  map[cell]float64
	view atomic.Pointer[logView] // the active log

	snap atomic.Pointer[snapshot]

	commitParks atomic.Uint64 // updates that found mu held

	compactMu      sync.Mutex // serializes compactions
	compactPending atomic.Bool
	compactions    atomic.Uint64
	lastFreezeNs   atomic.Int64
	lastCompactNs  atomic.Int64

	// Compaction retry backoff: a failed background rebuild (I/O fault,
	// injected failpoint, refused build) leaves the frozen overlay live —
	// readers stay exact — and schedules the next attempt no earlier than
	// nextCompactNs, doubling the delay per consecutive failure so a
	// persistently failing rebuild cannot hot-loop. compactFails counts the
	// streak; any success resets both.
	compactFails  atomic.Uint32
	nextCompactNs atomic.Int64

	// rebuildHook, when set (tests only), runs between the freeze and the
	// rebuild publish — the window in which readers and writers must keep
	// making progress on the frozen snapshot.
	rebuildHook func()
}

// New builds an Updatable over m. The base format comes from o.Format,
// or from automatic selection (selector.BuildAuto) when empty. m is
// retained as the base matrix and must not be modified by the caller.
func New(m *matrix.CSR, o Options) (*Updatable, error) {
	var f formats.Format
	if o.Format != "" {
		b, ok := formats.Lookup(o.Format)
		if !ok {
			return nil, fmt.Errorf("update: unknown format %q", o.Format)
		}
		var err error
		f, err = b.Build(m)
		if err != nil {
			return nil, err
		}
	} else {
		a, err := selector.BuildAuto(m, o.autoOptions())
		if err != nil {
			return nil, err
		}
		f = a
	}
	return Wrap(f, m, o)
}

// Wrap pairs an already-built base format with the CSR it was built
// from. Both are retained; the caller must not modify m afterwards.
func Wrap(f formats.Format, m *matrix.CSR, o Options) (*Updatable, error) {
	if f.Rows() != m.Rows || f.Cols() != m.Cols {
		return nil, fmt.Errorf("update: format %s is %dx%d, matrix is %dx%d",
			f.Name(), f.Rows(), f.Cols(), m.Rows, m.Cols)
	}
	u := &Updatable{opts: o}
	u.Delegates = formats.DelegateTo(u)
	u.net = make(map[cell]float64)
	u.view.Store(emptyView)
	u.snap.Store(&snapshot{base: f, baseCSR: m, frozen: emptyView})
	return u, nil
}

// Set makes cell (r, c) read exactly v from every multiply that observes
// the update onward. It panics when the coordinates are out of range.
func (u *Updatable) Set(r, c int, v float64) {
	u.apply(r, c, func(cur float64) float64 { return v - cur })
}

// Add adds v to cell (r, c), creating it when absent.
func (u *Updatable) Add(r, c int, v float64) {
	u.apply(r, c, func(float64) float64 { return v })
}

// Delete removes cell (r, c): subsequent multiplies read it as zero, and
// the next compaction drops its storage.
func (u *Updatable) Delete(r, c int) {
	u.apply(r, c, func(cur float64) float64 { return -cur })
}

// apply resolves one update into an additive log entry and publishes it.
// Set and Delete need the cell's current value, which under mu is the net
// index's or, for a cell it does not hold, the base's (a rebuild publishes
// its base before it cuts the index, so the two cannot drift apart while
// we hold mu).
func (u *Updatable) apply(r, c int, dv func(cur float64) float64) {
	key := u.locate(r, c)
	if !u.mu.TryLock() {
		u.commitParks.Add(1)
		u.mu.Lock()
	}
	cur := u.current(key)
	d := dv(cur)
	if d == 0 {
		// No-op update: Set to the present value, Delete of an absent
		// cell, Add of zero. Nothing to log.
		u.mu.Unlock()
		return
	}
	u.seq++
	old := u.view.Load()
	// Appends may extend the shared backing arrays in place (indices below
	// every published length stay untouched) and publish the longer view;
	// growth reallocates, which is what keeps appends amortized O(1).
	u.view.Store(&logView{
		seq: append(old.seq, u.seq),
		row: append(old.row, key.r),
		col: append(old.col, key.c),
		val: append(old.val, d),
	})
	u.net[key] = cur + d
	u.mu.Unlock()
	if !u.opts.NoAutoCompact {
		u.maybeCompact()
	}
}

// csrAt returns the stored value at (r, c), zero when absent.
func csrAt(m *matrix.CSR, r, c int32) float64 {
	cols, vals := m.Row(int(r))
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= c })
	if i < len(cols) && cols[i] == c {
		return vals[i]
	}
	return 0
}

// At returns the current value of cell (r, c) as the next multiply would
// observe it.
func (u *Updatable) At(r, c int) float64 {
	key := u.locate(r, c)
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.current(key)
}

// locate returns cell (r, c), and panics when the coordinates are out of
// range.
func (u *Updatable) locate(r, c int) cell {
	if s := u.snap.Load(); r < 0 || r >= s.baseCSR.Rows || c < 0 || c >= s.baseCSR.Cols {
		panic(fmt.Sprintf("update: entry (%d,%d) out of range %dx%d", r, c, s.baseCSR.Rows, s.baseCSR.Cols))
	}
	return cell{int32(r), int32(c)}
}

// current returns cell key's value; the caller holds mu.
func (u *Updatable) current(key cell) float64 {
	if v, ok := u.net[key]; ok {
		return v
	}
	return csrAt(u.snap.Load().baseCSR, key.r, key.c)
}
