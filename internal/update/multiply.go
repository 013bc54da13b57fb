package update

import (
	"context"
	"sort"

	"repro/internal/exec"
	"repro/internal/formats"
)

// loadConsistent fills views with the shard views of one coherent read
// point and returns the snapshot and the visible watermark that go with
// them. The seqlock-style revalidation guards the one hazard: a compactor
// publishing a new snapshot between our snapshot load and our view loads
// would pair views trimmed for the new floor with the old floor. Readers
// never take a lock; the retry only fires across a concurrent snapshot
// publish, which is rare and cheap to replay.
func (u *Updatable) loadConsistent(views []*shardView) (*snapshot, uint64) {
	for {
		s := u.snap.Load()
		v := u.visible.Load()
		for i := range u.shards {
			views[i] = u.shards[i].view.Load()
		}
		if u.snap.Load() == s {
			return s, v
		}
	}
}

// viewRange returns the half-open index range of entries with
// floor < seq <= v in the ascending sequence array.
func viewRange(vw *shardView, floor, v uint64) (int, int) {
	lo := sort.Search(len(vw.seq), func(i int) bool { return vw.seq[i] > floor })
	hi := sort.Search(len(vw.seq), func(i int) bool { return vw.seq[i] > v })
	return lo, hi
}

// Name reports the current base wrapped in Updatable[...].
func (u *Updatable) Name() string { return "Updatable[" + u.snap.Load().base.Name() + "]" }

// Rows returns the number of rows.
func (u *Updatable) Rows() int { return u.snap.Load().baseCSR.Rows }

// Cols returns the number of columns.
func (u *Updatable) Cols() int { return u.snap.Load().baseCSR.Cols }

// NNZ returns the stored-entry count of the current epoch: base plus
// overlay. Overlay cells that shadow base cells count twice until the
// next compaction folds them, so this is an upper bound on the logical
// nonzero count.
func (u *Updatable) NNZ() int64 {
	views := make([]*shardView, len(u.shards))
	s, v := u.loadConsistent(views)
	n := s.base.NNZ()
	if s.frozen != nil {
		n += int64(s.frozen.NNZ())
	}
	for _, vw := range views {
		lo, hi := viewRange(vw, s.floor, v)
		n += int64(hi - lo)
	}
	return n
}

// Bytes estimates resident bytes: base plus overlay arrays.
func (u *Updatable) Bytes() int64 {
	views := make([]*shardView, len(u.shards))
	s, _ := u.loadConsistent(views)
	b := s.base.Bytes()
	if s.fdelta != nil {
		b += s.fdelta.Bytes()
	}
	for _, vw := range views {
		b += int64(len(vw.seq))*8 + int64(len(vw.row))*4 + int64(len(vw.col))*4 + int64(len(vw.val))*8
	}
	return b
}

// Traits reports the current base's traits: the overlay is an additive
// veneer, not a different execution shape.
func (u *Updatable) Traits() formats.Traits { return u.snap.Load().base.Traits() }

// Apply implements formats.Format: Y = A*X for k right-hand sides over the
// fused base + frozen + active pass of one consistent read point. All
// three run their own dispatches under ctx — a cancelled call stops at the
// next chunk boundary (the next log shard, in the active pass), a lane
// panic comes back as *exec.PanicError. SpMV, SpMVParallel and MultiplyMany
// are the embedded formats.Delegates over this method.
func (u *Updatable) Apply(ctx context.Context, y, x []float64, k, workers int) error {
	views := make([]*shardView, len(u.shards))
	s, v := u.loadConsistent(views)
	if err := s.base.Apply(ctx, y, x, k, workers); err != nil {
		return err
	}
	if s.fdelta != nil {
		if err := s.fdelta.Add(ctx, y, x, k, workers); err != nil {
			return err
		}
	}
	return addActive(ctx, views, s.floor, v, y, x, k, workers)
}

// addActive accumulates Y += active*X for the committed active entries of
// one read point. Entries below the snapshot floor are folded into the
// frozen overlay already; entries above the visible watermark are not yet
// part of the observed prefix. The entries scatter by log shard; shards own
// disjoint row groups, so the parallel pass never writes one output row
// from two goroutines.
func addActive(ctx context.Context, views []*shardView, floor, v uint64, y, x []float64, k, workers int) error {
	var total int64
	for _, vw := range views {
		lo, hi := viewRange(vw, floor, v)
		total += int64(hi - lo)
	}
	if total == 0 {
		return nil
	}
	workers = exec.Workers(total*int64(k), workers)
	if workers > len(views) {
		workers = len(views)
	}
	ctl := exec.NewCtl(ctx)
	if workers <= 1 {
		for _, vw := range views {
			if ctl.Cancelled() {
				return ctl.Err()
			}
			addView(vw, floor, v, y, x, k)
		}
		return nil
	}
	g := exec.AcquireCtl(workers, ctl)
	defer g.Release()
	return g.Run(workers, func(w int) {
		for i := w; i < len(views) && !ctl.Cancelled(); i += workers {
			addView(views[i], floor, v, y, x, k)
		}
	})
}

// addView is addActive's pass over one log shard.
func addView(vw *shardView, floor, v uint64, y, x []float64, k int) {
	lo, hi := viewRange(vw, floor, v)
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
