package update

import (
	"context"
	"sort"

	"repro/internal/exec"
	"repro/internal/formats"
)

// readPoint is one coherent read of an Updatable: a snapshot, the
// visible watermark and the shard views that go with them, and, for a
// multiply, the call's vectors. Each Updatable keeps one spare, and the
// parallel active pass runs its pre-bound lane, so a steady-state
// multiply allocates nothing; only a reader that overlaps another
// allocates its own.
type readPoint struct {
	s     *snapshot
	v     uint64
	views []*shardView
	y, x  []float64
	k     int
	step  int // the active pass's lanes
	ctl   *exec.Ctl
	lane  func(w int)
}

// read loads a read point; release returns it as the spare. The
// seqlock-style revalidation guards the one hazard: a compactor
// publishing a new snapshot between our snapshot load and our view loads
// would pair views trimmed for the new floor with the old floor. Readers
// never take a lock; the retry only fires across a concurrent snapshot
// publish, which is rare and cheap to replay.
func (u *Updatable) read() *readPoint {
	rp := u.spare.Swap(nil)
	if rp == nil {
		rp = &readPoint{views: make([]*shardView, len(u.shards))}
		rp.lane = rp.activeLane
	}
	for {
		rp.s, rp.v = u.snap.Load(), u.visible.Load()
		for i := range u.shards {
			rp.views[i] = u.shards[i].view.Load()
		}
		if u.snap.Load() == rp.s {
			return rp
		}
	}
}

// release drops what rp references and keeps it as the spare.
func (u *Updatable) release(rp *readPoint) {
	clear(rp.views)
	rp.s, rp.y, rp.x, rp.ctl = nil, nil, nil, nil
	u.spare.Store(rp)
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
	rp := u.read()
	defer u.release(rp)
	n := rp.s.base.NNZ()
	if rp.s.frozen != nil {
		n += int64(rp.s.frozen.NNZ())
	}
	return n + int64(rp.active())
}

// active counts the committed active entries of rp.
func (rp *readPoint) active() int {
	n := 0
	for _, vw := range rp.views {
		lo, hi := viewRange(vw, rp.s.floor, rp.v)
		n += hi - lo
	}
	return n
}

// Bytes estimates resident bytes: base plus overlay arrays.
func (u *Updatable) Bytes() int64 {
	rp := u.read()
	defer u.release(rp)
	b := rp.s.base.Bytes()
	if rp.s.fdelta != nil {
		b += rp.s.fdelta.Bytes()
	}
	for _, vw := range rp.views {
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
	rp := u.read()
	defer u.release(rp)
	if err := rp.s.base.Apply(ctx, y, x, k, workers); err != nil {
		return err
	}
	if rp.s.fdelta != nil {
		if err := rp.s.fdelta.Add(ctx, y, x, k, workers); err != nil {
			return err
		}
	}
	return rp.addActive(ctx, y, x, k, workers)
}

// addActive accumulates Y += active*X for the committed active entries of
// rp. Entries below the snapshot floor are folded into the frozen overlay
// already; entries above the visible watermark are not yet part of the
// observed prefix. The entries scatter by log shard; shards own disjoint
// row groups, so the parallel pass never writes one output row from two
// goroutines.
func (rp *readPoint) addActive(ctx context.Context, y, x []float64, k, workers int) error {
	total := rp.active()
	if total == 0 {
		return nil
	}
	rp.y, rp.x, rp.k, rp.ctl = y, x, k, exec.NewCtl(ctx)
	rp.step = min(exec.Workers(int64(total)*int64(k), workers), len(rp.views))
	if rp.step <= 1 {
		rp.step = 1
		if rp.activeLane(0); rp.ctl.Cancelled() {
			return rp.ctl.Err()
		}
		return nil
	}
	g := exec.AcquireCtl(rp.step, rp.ctl)
	defer g.Release()
	return g.Run(rp.step, rp.lane)
}

// activeLane is lane w's share of the active pass: every step-th shard.
func (rp *readPoint) activeLane(w int) {
	for i := w; i < len(rp.views) && !rp.ctl.Cancelled(); i += rp.step {
		addView(rp.views[i], rp.s.floor, rp.v, rp.y, rp.x, rp.k)
	}
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
