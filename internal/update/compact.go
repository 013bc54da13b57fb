package update

import (
	"context"
	"fmt"
	"time"

	"repro/internal/failpoint"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
)

// Compaction retry backoff bounds: the first failed rebuild delays the
// next background attempt by compactRetryBase, doubling per consecutive
// failure up to compactRetryMax. Explicit Compact calls ignore the
// schedule (the caller asked now and gets the error directly).
const (
	compactRetryBase = 100 * time.Millisecond
	compactRetryMax  = 30 * time.Second
)

// Default compaction trigger; per-matrix overrides live in Options.
const (
	defMinCompact   = 8192
	defCompactRatio = 0.05
)

// CompactionThreshold returns the default trigger: a background
// compaction starts once an Updatable's overlay (frozen plus active log)
// holds at least max(min, ratio*base-nnz) entries.
func CompactionThreshold() (min int, ratio float64) {
	return defMinCompact, defCompactRatio
}

// overlayLen counts overlay entries: frozen plus the active log above the
// snapshot floor.
func (u *Updatable) overlayLen(s *snapshot) int {
	n := int(u.alloc.Load() - s.floor)
	if s.frozen != nil {
		n += s.frozen.NNZ()
	}
	return n
}

// threshold resolves the effective trigger for this matrix.
func (u *Updatable) threshold(baseNNZ int64) int {
	min, ratio := u.opts.MinCompact, u.opts.CompactRatio
	if min <= 0 {
		min = defMinCompact
	}
	if ratio <= 0 {
		ratio = defCompactRatio
	}
	t := int(ratio * float64(baseNNZ))
	if t < min {
		t = min
	}
	return t
}

// maybeCompact kicks off one background compaction when the overlay has
// crossed the trigger, none is already pending, and the retry backoff
// from a previous failure has elapsed.
func (u *Updatable) maybeCompact() {
	s := u.snap.Load()
	if u.overlayLen(s) < u.threshold(s.base.NNZ()) {
		return
	}
	if ns := u.nextCompactNs.Load(); ns != 0 && time.Now().UnixNano() < ns {
		return // backing off after a failed rebuild; frozen overlay serves reads
	}
	if !u.compactPending.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer u.compactPending.Store(false)
		u.compactMu.Lock()
		defer u.compactMu.Unlock()
		s := u.snap.Load()
		if u.overlayLen(s) < u.threshold(s.base.NNZ()) {
			return // a concurrent explicit Compact already folded it
		}
		// A failed rebuild keeps the frozen epoch — readers stay exact —
		// and arms the backoff for the next attempt.
		u.noteCompactOutcome(u.compactOnce(context.Background()))
	}()
}

// noteCompactOutcome updates the retry-backoff state after a compaction
// attempt: failures double the delay before the next background attempt
// (capped), success clears it.
func (u *Updatable) noteCompactOutcome(err error) {
	if err == nil {
		u.compactFails.Store(0)
		u.nextCompactNs.Store(0)
		return
	}
	streak := u.compactFails.Add(1)
	d := compactRetryBase << (streak - 1)
	if streak > 8 || d > compactRetryMax || d <= 0 {
		d = compactRetryMax
	}
	u.nextCompactNs.Store(time.Now().UnixNano() + d.Nanoseconds())
}

// Compact synchronously folds the entire overlay — frozen and active —
// into a fresh base matrix, re-selects the base format, and publishes the
// new epoch. Multiplies in flight finish on the old snapshot; new ones
// see the compacted base immediately.
func (u *Updatable) Compact() error {
	return u.CompactCtx(context.Background())
}

// CompactCtx is Compact honoring a context: the format re-selection of
// the rebuild phase aborts at its stage boundaries on cancellation (see
// selector.ReselectCtx). A cancelled compaction behaves exactly like a
// failed one — the freeze has already happened, the frozen overlay stays
// live serving exact reads, and a later Compact folds it.
func (u *Updatable) CompactCtx(ctx context.Context) error {
	u.compactMu.Lock()
	defer u.compactMu.Unlock()
	err := u.compactOnce(ctx)
	u.noteCompactOutcome(err)
	return err
}

// compactOnce runs one freeze-then-rebuild cycle. Caller holds compactMu.
//
// Phase 1 (freeze) takes every shard lock — pausing writers for the gather,
// never readers — moves the whole active log into the frozen overlay, and
// bumps the floor to the allocation cut. Holding all shard locks makes the
// cut exact: no writer can be between ticket allocation and view publish,
// so every sequence number at or below the cut is in some view.
//
// Phase 2 (rebuild) runs without any lock: merge the frozen overlay into a
// fresh CSR, re-select the base format (drift invalidation plus warm
// journal reuse via selector.Reselect), and publish the new epoch. Readers
// that loaded the frozen snapshot concurrently revalidate and retry.
func (u *Updatable) compactOnce(ctx context.Context) error {
	start := time.Now()
	// Freeze injection point: a fault here models a compactor dying before
	// it touched anything — no freeze happens, the current epoch (and any
	// earlier frozen overlay) keeps serving.
	if err := failpoint.Inject("update.freeze"); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range u.shards {
		u.shards[i].mu.Lock()
	}
	s := u.snap.Load()
	cut := u.alloc.Load()
	frozenN := 0
	if s.frozen != nil {
		frozenN = s.frozen.NNZ()
	}
	active := 0
	for i := range u.shards {
		active += len(u.shards[i].view.Load().seq)
	}
	if frozenN+active == 0 {
		for i := range u.shards {
			u.shards[i].mu.Unlock()
		}
		return nil
	}
	o := matrix.NewCOO(s.baseCSR.Rows, s.baseCSR.Cols, frozenN+active)
	if s.frozen != nil {
		// The frozen overlay is already sorted and duplicate-free, so it
		// forms the sorted prefix Compact's fast path scans over.
		o.RowIdx = append(o.RowIdx, s.frozen.RowIdx...)
		o.ColIdx = append(o.ColIdx, s.frozen.ColIdx...)
		o.Val = append(o.Val, s.frozen.Val...)
	}
	for i := range u.shards {
		vw := u.shards[i].view.Load()
		o.RowIdx = append(o.RowIdx, vw.row...)
		o.ColIdx = append(o.ColIdx, vw.col...)
		o.Val = append(o.Val, vw.val...)
	}
	o.Compact()
	// Drop net-zero cells: deletions and exact cancellations carry no
	// information once folded, and keeping them would grow the overlay (and
	// later the merged base) with dead storage.
	w := 0
	for i := range o.Val {
		if o.Val[i] != 0 {
			o.RowIdx[w], o.ColIdx[w], o.Val[w] = o.RowIdx[i], o.ColIdx[i], o.Val[i]
			w++
		}
	}
	o.RowIdx, o.ColIdx, o.Val = o.RowIdx[:w], o.ColIdx[:w], o.Val[:w]

	frozen := &snapshot{
		epoch:   s.epoch + 1,
		base:    s.base,
		baseCSR: s.baseCSR,
		floor:   cut,
	}
	if o.NNZ() > 0 {
		frozen.frozen = o
		frozen.fdelta = formats.NewDeltaCOO(o)
	}
	u.snap.Store(frozen)
	for i := range u.shards {
		sh := &u.shards[i]
		sh.view.Store(emptyView)
		sh.net = make(map[cell]float64)
		sh.mu.Unlock()
	}
	u.lastFreezeNs.Store(time.Since(start).Nanoseconds())

	if u.rebuildHook != nil {
		u.rebuildHook()
	}
	if frozen.frozen == nil {
		// The overlay net-cancelled to nothing; the old base is still exact.
		u.lastCompactNs.Store(time.Since(start).Nanoseconds())
		return nil
	}
	merged := frozen.baseCSR.MergeCOO(frozen.frozen)
	base, err := u.rebuildBase(ctx, merged, frozen.baseCSR.Fingerprint())
	if err != nil {
		return err
	}
	u.snap.Store(&snapshot{
		epoch:   frozen.epoch + 1,
		base:    base,
		baseCSR: merged,
		floor:   frozen.floor,
	})
	u.compactions.Add(1)
	u.lastCompactNs.Store(time.Since(start).Nanoseconds())
	return nil
}

// rebuildBase builds the next epoch's base format for the merged matrix.
// A pinned format rebuilds as pinned (falling back to Naive-CSR when the
// drifted structure no longer fits its build constraints); otherwise the
// selector re-runs, invalidating the predecessor fingerprint's cached
// decisions and reusing the journal for warm, zero-probe re-decisions.
func (u *Updatable) rebuildBase(ctx context.Context, m *matrix.CSR, oldFP uint64) (formats.Format, error) {
	// Rebuild injection point: a fault here models the rebuild dying after
	// the freeze — the frozen snapshot is already published, so readers
	// keep computing base + frozen exactly; a retry re-merges the same
	// frozen overlay.
	if err := failpoint.Inject("update.rebuild"); err != nil {
		return nil, err
	}
	if u.opts.Format != "" {
		b, ok := formats.Lookup(u.opts.Format)
		if !ok {
			return nil, fmt.Errorf("update: unknown format %q", u.opts.Format)
		}
		f, err := b.Build(m)
		if err == nil {
			return f, nil
		}
		cb, ok := formats.Lookup("Naive-CSR")
		if !ok {
			return nil, err
		}
		return cb.Build(m)
	}
	a, _, err := selector.ReselectCtx(ctx, oldFP, m, u.opts.autoOptions())
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Stats is a point-in-time view of an Updatable's internals.
type Stats struct {
	Epoch         uint64 // snapshot publishes since construction
	BaseFormat    string // current base format name
	BaseNNZ       int64  // stored entries in the base
	FrozenLen     int    // entries in the frozen overlay
	ActiveLen     int    // committed entries in the active log
	Updates       uint64 // updates applied since construction
	Compactions   uint64 // completed freeze+rebuild cycles
	LastFreezeNs  int64  // duration writers were paused by the last freeze
	LastCompactNs int64  // full duration of the last compaction
	CommitParks   uint64 // commits that parked waiting for a predecessor
	CompactFails  uint32 // consecutive failed rebuilds (0 when healthy)
	RetryBackoff  bool   // a failed rebuild is currently delaying auto-compaction
}

// Stats returns current counters and sizes.
func (u *Updatable) Stats() Stats {
	views := make([]*shardView, len(u.shards))
	s, v := u.loadConsistent(views)
	st := Stats{
		Epoch:         s.epoch,
		BaseFormat:    s.base.Name(),
		BaseNNZ:       s.base.NNZ(),
		Updates:       v,
		Compactions:   u.compactions.Load(),
		LastFreezeNs:  u.lastFreezeNs.Load(),
		LastCompactNs: u.lastCompactNs.Load(),
		CommitParks:   u.commitParks.Load(),
		CompactFails:  u.compactFails.Load(),
		RetryBackoff:  u.nextCompactNs.Load() > time.Now().UnixNano(),
	}
	if s.frozen != nil {
		st.FrozenLen = s.frozen.NNZ()
	}
	for _, vw := range views {
		lo, hi := viewRange(vw, s.floor, v)
		st.ActiveLen += hi - lo
	}
	return st
}

// Epoch returns the current snapshot epoch.
func (u *Updatable) Epoch() uint64 { return u.snap.Load().epoch }

// Base returns the current base format.
func (u *Updatable) Base() formats.Format { return u.snap.Load().base }

// BaseMatrix returns the CSR the current base was built from.
func (u *Updatable) BaseMatrix() *matrix.CSR { return u.snap.Load().baseCSR }
