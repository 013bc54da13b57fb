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

// overlayLen counts rp's overlay entries: the frozen log (a failed
// rebuild's) plus the active log above the snapshot floor.
func (rp *readPoint) overlayLen() int {
	lo, hi := rp.active()
	if rp.s.log != nil {
		return rp.s.log.NNZ() + hi - lo
	}
	return hi - lo
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
	if rp := u.read(); rp.overlayLen() < u.threshold(rp.s.base.NNZ()) {
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
		if rp := u.read(); rp.overlayLen() < u.threshold(rp.s.base.NNZ()) {
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
// Phase 1 (freeze) takes the update lock — pausing writers for the gather,
// never readers — moves the whole active log into the frozen overlay, and
// bumps the floor to the last sequence number issued, which under the lock
// is the last entry of the log.
//
// Phase 2 (rebuild) runs without the lock: merge the frozen log into a
// fresh CSR, re-select the base format (drift invalidation plus warm
// journal reuse via selector.ReselectCtx), and publish the new epoch.
// Readers that loaded the frozen snapshot concurrently revalidate and
// retry.
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
	u.mu.Lock()
	s, vw := u.snap.Load(), u.view.Load()
	n := len(vw.seq)
	if s.log != nil {
		n += s.log.NNZ()
	}
	if n == 0 {
		u.mu.Unlock()
		return nil
	}
	// log holds every entry the base lacks, each cell's in sequence order:
	// a failed rebuild's log first, then the active log. The stable sort
	// keeps that order within a cell.
	log := matrix.NewCOO(s.baseCSR.Rows, s.baseCSR.Cols, n)
	if s.log != nil {
		log.RowIdx = append(log.RowIdx, s.log.RowIdx...)
		log.ColIdx = append(log.ColIdx, s.log.ColIdx...)
		log.Val = append(log.Val, s.log.Val...)
	}
	log.RowIdx = append(log.RowIdx, vw.row...)
	log.ColIdx = append(log.ColIdx, vw.col...)
	log.Val = append(log.Val, vw.val...)
	log.SortStable()
	overlay, changed := sumCells(s.baseCSR, log)
	frozen := &snapshot{
		epoch:   s.epoch + 1,
		base:    s.base,
		baseCSR: s.baseCSR,
		frozen:  overlay,
		log:     log,
		floor:   u.seq,
	}
	// net keeps its cells' values across the freeze: they are what the
	// rebuild merges to, so At and the writes that resolve against it read
	// the same value before, during and after.
	u.snap.Store(frozen)
	u.view.Store(emptyView)
	u.mu.Unlock()
	u.lastFreezeNs.Store(time.Since(start).Nanoseconds())

	if u.rebuildHook != nil {
		u.rebuildHook()
	}
	next := &snapshot{epoch: frozen.epoch + 1, base: s.base, baseCSR: s.baseCSR, frozen: emptyView, floor: frozen.floor}
	if changed {
		merged := s.baseCSR.MergeCOO(log)
		base, err := u.rebuildBase(ctx, merged, s.baseCSR.Fingerprint())
		if err != nil {
			return err
		}
		next.base, next.baseCSR = base, merged
		u.compactions.Add(1)
	}
	u.snap.Store(next)
	// The base now holds every frozen cell's value; net keeps only the
	// cells the active log touches.
	u.mu.Lock()
	vw = u.view.Load()
	keep := make(map[cell]float64, len(vw.seq))
	for j := range vw.seq {
		key := cell{vw.row[j], vw.col[j]}
		keep[key] = u.net[key]
	}
	u.net = keep
	u.mu.Unlock()
	u.lastCompactNs.Store(time.Since(start).Nanoseconds())
	return nil
}

// sumCells returns the sorted log summed per cell, less the cells that
// sum to zero (they add nothing to a product): the readers' frozen
// overlay, in row order. changed reports whether any cell's entries,
// added onto the base one after another, move it; when none does, the
// base is already exact and the rebuild is skipped.
func sumCells(base *matrix.CSR, log *matrix.COO) (frozen *logView, changed bool) {
	frozen = &logView{}
	for i := 0; i < log.NNZ(); {
		r, c := log.RowIdx[i], log.ColIdx[i]
		b := csrAt(base, r, c)
		v, sum := b, 0.0
		for ; i < log.NNZ() && log.RowIdx[i] == r && log.ColIdx[i] == c; i++ {
			v += log.Val[i]
			sum += log.Val[i]
		}
		changed = changed || v != b
		if sum != 0 {
			frozen.row, frozen.col, frozen.val = append(frozen.row, r), append(frozen.col, c), append(frozen.val, sum)
		}
	}
	return frozen, changed
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
	// frozen log.
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
	CommitParks   uint64 // updates that found the update lock held
	CompactFails  uint32 // consecutive failed rebuilds (0 when healthy)
	RetryBackoff  bool   // a failed rebuild is currently delaying auto-compaction
}

// Stats returns current counters and sizes.
func (u *Updatable) Stats() Stats {
	rp := u.read()
	s := rp.s
	lo, hi := rp.active()
	return Stats{
		Epoch:         s.epoch,
		BaseFormat:    s.base.Name(),
		BaseNNZ:       s.base.NNZ(),
		FrozenLen:     len(s.frozen.val),
		ActiveLen:     hi - lo,
		Updates:       s.floor + uint64(hi-lo),
		Compactions:   u.compactions.Load(),
		LastFreezeNs:  u.lastFreezeNs.Load(),
		LastCompactNs: u.lastCompactNs.Load(),
		CommitParks:   u.commitParks.Load(),
		CompactFails:  u.compactFails.Load(),
		RetryBackoff:  u.nextCompactNs.Load() > time.Now().UnixNano(),
	}
}

// Epoch returns the current snapshot epoch.
func (u *Updatable) Epoch() uint64 { return u.snap.Load().epoch }

// Base returns the current base format.
func (u *Updatable) Base() formats.Format { return u.snap.Load().base }
