// Package update provides Updatable, a mutable sparse matrix for
// dynamic-graph workloads: a read-optimized base (any built
// formats.Format) paired with a concurrent delta overlay, multiplied
// together in one fused pass.
//
// The design is epoch/RCU-style. Readers load one immutable snapshot
// pointer — {base format, base CSR, frozen overlay, log floor} — plus the
// published shard views of the active delta log, and compute base + frozen
// + active without taking any lock. Writers append to a row-sharded log
// under a short per-shard lock and commit in global sequence order, so
// every multiply observes a prefix of the total update order (the
// linearizable-snapshot contract the stress tests pin). When the overlay
// crosses a size threshold, a background compactor folds it into a fresh
// CSR, re-runs automatic format selection (structure drift can change the
// winner; the decision journal makes warm re-decisions zero-probe), and
// swaps the snapshot — in-flight multiplies finish on the old epoch.
package update

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
)

// DefaultShards is the default delta-log shard count. Rows map to shards
// by r mod shards, so writers on different row groups never contend and
// the active entries of distinct shards touch disjoint output rows — the
// property the parallel fused pass scatters by.
const DefaultShards = 8

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
	// State is the selection state (re-)selection consults and feeds — the
	// owning Session's, so the initial build and every compaction's
	// re-selection share the session's caches, experience base and shard
	// key. Nil selects statelessly.
	State *selector.State
	// Shards is the delta-log shard count (0: DefaultShards).
	Shards int
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
	return selector.AutoOptions{K: o.K, Probe: o.Probe, State: o.State}
}

// cell addresses one matrix position in a shard's net-delta index.
type cell struct{ r, c int32 }

// shardView is the published, effectively-immutable view of one shard's
// active log: parallel arrays in append order with strictly ascending
// sequence numbers. Appends extend the backing arrays in place past the
// published length and then publish a longer view — indices below a
// published length are never rewritten, so a reader holding any view sees
// frozen data.
type shardView struct {
	seq      []uint64
	row, col []int32
	val      []float64
}

var emptyView = &shardView{}

// logShard is one stripe of the active delta log.
type logShard struct {
	mu   sync.Mutex
	view atomic.Pointer[shardView]
	// net holds the per-cell sum of this shard's entries above the
	// current snapshot floor: the write-time state Set and Delete resolve
	// their current value against. Guarded by mu; rebuilt on freeze.
	net map[cell]float64
}

// snapshot is the immutable read surface of one epoch.
type snapshot struct {
	epoch   uint64
	base    formats.Format
	baseCSR *matrix.CSR
	// frozen is an additive overlay (sorted, duplicate-free, nil when
	// empty) holding every update with floor_prev < seq <= floor that has
	// not yet been folded into baseCSR; fdelta wraps it for the fused
	// kernels.
	frozen *matrix.COO
	fdelta *formats.DeltaCOO
	// floor is the highest update sequence number folded into
	// baseCSR+frozen; active log entries with seq <= floor are stale.
	floor uint64
}

// Updatable is a concurrently updatable sparse matrix. All methods are
// safe for concurrent use; multiplies never block on updates or
// compaction.
type Updatable struct {
	formats.Delegates
	opts   Options
	shards []logShard

	// alloc tickets update sequence numbers; visible is the commit
	// watermark: every update with seq <= visible is published and
	// ordered. Readers bound their active-log scan by visible, so a
	// multiply always observes a prefix of the global update order.
	alloc   atomic.Uint64
	visible atomic.Uint64

	snap atomic.Pointer[snapshot]

	// Commit-wait parking. Writers commit in ticket order; a writer whose
	// predecessor has not yet published spins briefly (the common case: the
	// predecessor is between its own publish steps) and then parks on
	// commitCond instead of burning a core. commitWaiters is read by
	// publishers outside commitMu to keep the no-waiter fast path
	// lock-free; it is only ever written under commitMu, and the empty
	// Lock/Unlock in finishCommit closes the check-then-Wait window.
	commitMu      sync.Mutex
	commitCond    *sync.Cond
	commitWaiters atomic.Int32
	commitParks   atomic.Uint64

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
	s := o.Shards
	if s <= 0 {
		s = DefaultShards
	}
	u := &Updatable{opts: o, shards: make([]logShard, s)}
	u.Delegates = formats.DelegateTo(u)
	u.commitCond = sync.NewCond(&u.commitMu)
	for i := range u.shards {
		u.shards[i].view.Store(emptyView)
		u.shards[i].net = make(map[cell]float64)
	}
	u.snap.Store(&snapshot{base: f, baseCSR: m})
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

// apply resolves one update into an additive log entry and commits it.
// Set and Delete need the cell's current value, which under the shard
// lock is exactly base + frozen + the shard's net index (freezes take
// every shard lock, so the snapshot and the index cannot drift apart
// while we hold ours).
func (u *Updatable) apply(r, c int, dv func(cur float64) float64) {
	if s := u.snap.Load(); r < 0 || r >= s.baseCSR.Rows || c < 0 || c >= s.baseCSR.Cols {
		panic(fmt.Sprintf("update: entry (%d,%d) out of range %dx%d", r, c, s.baseCSR.Rows, s.baseCSR.Cols))
	}
	key := cell{int32(r), int32(c)}
	sh := &u.shards[r%len(u.shards)]
	sh.mu.Lock()
	s := u.snap.Load()
	cur := csrAt(s.baseCSR, key.r, key.c) + cooAt(s.frozen, key.r, key.c) + sh.net[key]
	d := dv(cur)
	if d == 0 {
		// No-op update: Set to the present value, Delete of an absent
		// cell, Add of zero. Nothing to log.
		sh.mu.Unlock()
		return
	}
	seq := u.alloc.Add(1)
	old := sh.view.Load()
	// Appends may extend the shared backing arrays in place (indices below
	// every published length stay untouched) and publish the longer view;
	// growth reallocates, which is what keeps appends amortized O(1).
	nv := &shardView{
		seq: append(old.seq, seq),
		row: append(old.row, key.r),
		col: append(old.col, key.c),
		val: append(old.val, d),
	}
	sh.view.Store(nv)
	if nd := sh.net[key] + d; nd == 0 {
		delete(sh.net, key)
	} else {
		sh.net[key] = nd
	}
	sh.mu.Unlock()
	// Commit in ticket order: wait for every earlier update to become
	// visible, then publish ours. The chain always advances — every
	// allocated ticket is published before its holder reaches this point.
	u.commit(seq)
	if !u.opts.NoAutoCompact {
		u.maybeCompact()
	}
}

// commitSpins is how many cooperative yields a committing writer spends
// before parking. The predecessor is usually a handful of instructions
// from its own publish, so a short spin wins; past it the writer is being
// scheduled against many peers (or a descheduled predecessor) and burning
// a core on Gosched only steals time from the writer everyone is waiting
// on.
const commitSpins = 128

// commit publishes seq once every earlier ticket is visible: spin
// briefly, then park on commitCond until the predecessor's publish wakes
// the queue.
func (u *Updatable) commit(seq uint64) {
	for i := 0; i < commitSpins; i++ {
		if u.visible.Load() == seq-1 {
			u.finishCommit(seq)
			return
		}
		runtime.Gosched()
	}
	u.commitParks.Add(1)
	u.commitMu.Lock()
	u.commitWaiters.Add(1)
	for u.visible.Load() != seq-1 {
		u.commitCond.Wait()
	}
	u.commitWaiters.Add(-1)
	u.commitMu.Unlock()
	u.finishCommit(seq)
}

// finishCommit publishes seq and wakes parked successors. The no-waiter
// fast path is one atomic load. When a waiter exists, the empty
// Lock/Unlock before Broadcast is what makes the wakeup reliable: a
// parker holds commitMu from its predicate check until Wait releases it,
// so by the time this publisher gets the lock the parker either saw the
// new watermark (and never waited) or is already inside Wait, where the
// Broadcast reaches it. Both loads are sequentially consistent, so a
// publisher that misses a just-arrived waiter's increment implies that
// waiter's later predicate load sees the new watermark.
func (u *Updatable) finishCommit(seq uint64) {
	u.visible.Store(seq)
	if u.commitWaiters.Load() != 0 {
		u.commitMu.Lock()
		//lint:ignore SA2001 empty critical section orders publish vs. park
		u.commitMu.Unlock()
		u.commitCond.Broadcast()
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

// cooAt returns the overlay value at (r, c) by binary search over the
// row-major sorted entries, zero when absent (or when there is no
// overlay).
func cooAt(o *matrix.COO, r, c int32) float64 {
	if o == nil {
		return 0
	}
	n := len(o.Val)
	i := sort.Search(n, func(i int) bool {
		if o.RowIdx[i] != r {
			return o.RowIdx[i] > r
		}
		return o.ColIdx[i] >= c
	})
	if i < n && o.RowIdx[i] == r && o.ColIdx[i] == c {
		return o.Val[i]
	}
	return 0
}

// At returns the current value of cell (r, c) as the next multiply would
// observe it.
func (u *Updatable) At(r, c int) float64 {
	if s := u.snap.Load(); r < 0 || r >= s.baseCSR.Rows || c < 0 || c >= s.baseCSR.Cols {
		panic(fmt.Sprintf("update: entry (%d,%d) out of range %dx%d", r, c, s.baseCSR.Rows, s.baseCSR.Cols))
	}
	key := cell{int32(r), int32(c)}
	sh := &u.shards[r%len(u.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := u.snap.Load()
	return csrAt(s.baseCSR, key.r, key.c) + cooAt(s.frozen, key.r, key.c) + sh.net[key]
}
