package update

import (
	"context"
	"sort"

	"repro/internal/formats"
)

// readPoint is one coherent read of an Updatable: a snapshot and the
// active log view that goes with it. It lives on the reader's stack, so no
// read allocates.
type readPoint struct {
	s  *snapshot
	vw *logView
}

// read loads a read point. The seqlock-style revalidation guards the one
// hazard: a compactor publishing a new snapshot between our snapshot load
// and our view load would pair the log emptied for the new floor with the
// old floor. Readers never take a lock; the retry only fires across a
// concurrent snapshot publish, which is rare and cheap to replay.
func (u *Updatable) read() (rp readPoint) {
	for {
		rp.s, rp.vw = u.snap.Load(), u.view.Load()
		if u.snap.Load() == rp.s {
			return rp
		}
	}
}

// active returns the index range of rp's active entries, those above the
// snapshot floor: none when the view was loaded just before a freeze
// published the snapshot, since the frozen overlay holds them all.
func (rp *readPoint) active() (int, int) {
	seq := rp.vw.seq
	return sort.Search(len(seq), func(i int) bool { return seq[i] > rp.s.floor }), len(seq)
}

// Name reports the current base wrapped in Updatable[...].
func (u *Updatable) Name() string { return "Updatable[" + u.snap.Load().base.Name() + "]" }

// Rows returns the number of rows.
func (u *Updatable) Rows() int { return u.snap.Load().baseCSR.Rows }

// Cols returns the number of columns.
func (u *Updatable) Cols() int { return u.snap.Load().baseCSR.Cols }

// NNZ returns the stored-entry count of the current epoch: base plus
// frozen plus active overlay. Overlay cells that shadow base cells count
// twice until the next compaction folds them, so this is an upper bound on
// the logical nonzero count.
func (u *Updatable) NNZ() int64 {
	rp := u.read()
	lo, hi := rp.active()
	return rp.s.base.NNZ() + int64(len(rp.s.frozen.val)+hi-lo)
}

// Bytes estimates resident bytes: base plus the frozen and active
// overlays' arrays.
func (u *Updatable) Bytes() int64 {
	rp := u.read()
	return rp.s.base.Bytes() + rp.s.frozen.bytes() + rp.vw.bytes()
}

// bytes is the size of vw's arrays.
func (vw *logView) bytes() int64 {
	return int64(len(vw.seq))*8 + int64(len(vw.row))*4 + int64(len(vw.col))*4 + int64(len(vw.val))*8
}

// Traits reports the current base's traits: the overlay is an additive
// veneer, not a different execution shape.
func (u *Updatable) Traits() formats.Traits { return u.snap.Load().base.Traits() }

// Apply implements formats.Format: Y = A*X for k right-hand sides over one
// consistent read point, as the base's dispatch and then the overlay on
// the calling goroutine: the frozen view, then the active log's entries
// above the snapshot floor (those at or below it are in the frozen overlay
// already). Each row adds base, frozen, active in that order on any lane
// count. A cancelled call stops at the base's next chunk boundary or
// before the overlay, and a base lane's panic comes back as
// *exec.PanicError. SpMV, SpMVParallel and MultiplyMany are the embedded
// formats.Delegates over this method.
func (u *Updatable) Apply(ctx context.Context, y, x []float64, k, workers int) error {
	rp := u.read()
	if err := rp.s.base.Apply(ctx, y, x, k, workers); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	addView(rp.s.frozen, 0, len(rp.s.frozen.val), y, x, k)
	lo, hi := rp.active()
	addView(rp.vw, lo, hi, y, x, k)
	return nil
}

// addView adds entries [lo, hi) of one view onto y.
func addView(vw *logView, lo, hi int, y, x []float64, k int) {
	if k == 1 {
		for e := lo; e < hi; e++ {
			y[vw.row[e]] += vw.val[e] * x[vw.col[e]]
		}
		return
	}
	for e := lo; e < hi; e++ {
		yb := y[int(vw.row[e])*k : int(vw.row[e])*k+k]
		xb := x[int(vw.col[e])*k : int(vw.col[e])*k+k]
		val := vw.val[e]
		for t := range yb {
			yb[t] += val * xb[t]
		}
	}
}
