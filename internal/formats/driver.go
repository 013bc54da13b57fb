package formats

import (
	"context"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/sched"
)

// The kernel contract. The paper holds the harness constant and varies
// only the storage format; this file is that harness. A format supplies a
// kernel — what it computes over a range of its own units, how much work
// those units are, and where each lane starts — and embeds a driver, which
// owns everything else: argument checking, the work·k serial cutoff, engine
// acquisition and release, the per-instance plan cache, the claim loop that
// hands out chunks (the unit of cancellation and of load balance alike), the
// carry fold of the formats that cut rows, and panic containment. No format
// dispatches on its own.

// kernel is what every storage format supplies to its driver.
type kernel interface {
	Format
	// units is the size of the unit space apply ranges over: rows, chunks
	// (SELL-C-s), block rows (BCSR), or the fixed cuts of a format that
	// splits rows (carryUnit).
	units() int
	// cum is a monotone cumulative work measure over units: cum(units())
	// is the work the serial cutoff sees (times k), and differences size
	// the chunks lanes claim. It is evaluated at chunk boundaries only,
	// never in inner loops.
	cum(i int) int64
	// plan is the partition policy: each lane's initial range for
	// key.Workers lanes, whatever the RHS count. A range says where a lane
	// starts claiming, not what it alone computes: a lane that drains its
	// own takes chunks off the others'. Built once per key and cached by
	// the driver; the driver's own (an even cut of the units) serves the
	// formats that do not choose.
	plan(key exec.PlanKey) *exec.Plan
	// apply computes units [lo, hi) of the k-wide product: k == 1 is the
	// single-vector loop, k > 1 the fused register tile. No other call
	// writes what a unit writes, so any lane may run any chunk. Formats
	// not named in fusedMulti only ever see k == 1 (the driver multiplies
	// their blocks one column at a time). A unit with a head row (see
	// driver.heads) sums that row's fragment from +0 into its carry slot,
	// c[u*k : u*k+k], instead of y; c is nil for the other formats.
	apply(y, x, c []float64, k, lo, hi int)
}

// carryUnit is the work in one unit of the formats that split rows — COO's
// entry segments (HYB's spill and DeltaCOO among them), Merge-CSR's
// merge-path diagonals (row ends plus nonzeros) and CSR5's groups of tiles
// — cut once at build. Every unit boundary is a cut whatever the lane
// count or k, so those formats give one answer per (matrix, x). Small
// enough that a small call still cuts into several claimable chunks a
// lane, large enough that the serial fold of the slots is noise beside
// the sweep.
const carryUnit = 1024

// epilogue is implemented by composite formats (HYB) that accumulate a
// second part onto y once the main sweep is complete.
type epilogue interface {
	after(ctl *exec.Ctl, y, x []float64, k, workers int) error
}

// applier is the one real entry point every Format exposes.
type applier interface {
	Apply(ctx context.Context, y, x []float64, k, workers int) error
}

// Delegates derives the three run-to-completion methods of Format from
// Apply, once for every implementation: embed it, set to DelegateTo the
// embedding value. The methods panic where Apply returns an error — a
// contained lane panic re-panics with its *exec.PanicError, a shape
// mismatch with its ErrDimension — which is the contract these entry
// points always had.
type Delegates struct{ self applier }

// DelegateTo returns the delegates calling self's Apply.
func DelegateTo(self applier) Delegates { return Delegates{self} }

// SpMV computes y = A*x serially.
func (d Delegates) SpMV(x, y []float64) {
	must(d.self.Apply(context.Background(), y, x, 1, 1))
}

// SpMVParallel computes y = A*x with up to workers lanes.
func (d Delegates) SpMVParallel(x, y []float64, workers int) {
	must(d.self.Apply(context.Background(), y, x, 1, workers))
}

// MultiplyMany computes Y = A*X for k row-major right-hand sides with the
// machine's parallelism.
func (d Delegates) MultiplyMany(y, x []float64, k int) {
	must(d.self.Apply(context.Background(), y, x, k, exec.MaxWorkers()))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// driver is the shared harness every format embeds.
type driver struct {
	Delegates
	kern kernel
	tail epilogue // nil for single-part formats
	// heads is set at build by the formats that split rows, one entry per
	// unit: the row its first item belongs to when that row began in an
	// earlier unit, else -1. nil for every other format.
	heads []int32
	n     int   // kern.units()
	work  int64 // kern.cum(n)
	fused bool  // apply handles k > 1
	plans exec.PlanCache
}

// bind attaches the driver to the fully assembled format value. Formats
// that embed another format by value bind the outer value last, so the
// driver always calls the outermost kernel; fusedMulti says by name whether
// its apply takes k > 1.
func (d *driver) bind(k kernel) {
	d.Delegates = DelegateTo(k)
	d.kern = k
	d.tail, _ = k.(epilogue)
	d.n = k.units()
	d.work = k.cum(d.n)
	d.fused = fusedMulti[k.Name()]
	d.plans = exec.NewPlanCache()
}

// Apply implements Format: the one entry point. It checks the arguments
// once, returns ctx's error if it is already done, and otherwise computes
// Y = A*X on up to workers lanes. A cancelled call stops at each lane's
// next claim and returns ctx's error with y partial; a panic on any
// lane, pooled or the caller's own, comes back as *exec.PanicError with
// the engine still serviceable.
func (d *driver) Apply(ctx context.Context, y, x []float64, k, workers int) (err error) {
	if err := CheckArgs(d.kern, y, x, k); err != nil {
		return err
	}
	ctl := exec.NewCtl(ctx)
	if ctl.Cancelled() {
		return ctl.Err()
	}
	defer func() {
		// Parallel dispatches contain their own lanes; this traps a kernel
		// fault on the serial path.
		if r := recover(); r != nil {
			pe, ok := r.(*exec.PanicError)
			if !ok {
				pe = &exec.PanicError{Value: r, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	return d.run(ctl, y, x, k, workers)
}

// run is Apply below the argument check: composite formats re-enter here
// for their parts.
func (d *driver) run(ctl *exec.Ctl, y, x []float64, k, workers int) error {
	if k > 1 && !d.fused {
		return d.byColumn(ctl, y, x, k, workers)
	}
	if err := d.sweep(ctl, y, x, k, workers); err != nil {
		return err
	}
	if d.tail != nil {
		return d.tail.after(ctl, y, x, k, workers)
	}
	return nil
}

// sweep is the dispatch every kernel goes through.
func (d *driver) sweep(ctl *exec.Ctl, y, x []float64, k, workers int) error {
	workers = min(exec.Workers(d.work*int64(k), workers), d.n)
	if workers <= 1 && d.heads == nil {
		d.claim([]cursor{{hi: d.n}}, 0, ctxGrain(k), ctl, y, x, nil, k) // a serial call is one lane, from unit 0
		if ctl.Cancelled() {
			return ctl.Err()
		}
		return nil
	}
	// A format that splits rows needs its carry slots on the serial path
	// too: it runs there as the one-lane plan.
	key, parallel := exec.PlanKey{Workers: 1}, workers > 1
	var g exec.Grant
	if parallel {
		g = exec.AcquireCtl(workers, ctl)
		defer g.Release() // no-op after Run; frees the pool if a plan build panics
		key = g.Key()
	}
	pl := d.plans.Get(key, func(key exec.PlanKey) *exec.Plan {
		pl := d.kern.plan(key)
		pl.Frame = newFrame(len(pl.Ranges))
		return pl
	})
	// The plan's lane frame and its carry slots are shared by every call
	// of this width. Another call mid-flight — the pooled one when this one
	// spawns, or the other way round — keeps the lock; this one then takes
	// a private frame, so concurrent invocations stay fully parallel and
	// only pay the allocation under real contention.
	fr := pl.Frame.(*frame)
	private := !pl.TryLock()
	if private {
		fr = newFrame(len(pl.Ranges))
	}
	defer func() {
		*fr = frame{lane: fr.lane, cur: fr.cur, c: fr.c} // a cached frame must not retain the caller's vectors
		if !private {
			pl.Unlock()
		}
	}()
	fr.d, fr.ctl, fr.y, fr.x, fr.k = d, ctl, y, x, k
	fr.grain = ctxGrain(k)
	if parallel {
		fr.grain = d.grain(k, len(pl.Ranges))
	}
	if n := len(d.heads) * k; len(fr.c) < n {
		fr.c = make([]float64, n) // grows to the widest k this plan has served
	}
	for w, r := range pl.Ranges {
		fr.cur[w].next.Store(int64(r.RowLo))
		fr.cur[w].hi = r.RowHi
	}
	if !parallel {
		fr.run(0)
		if ctl.Cancelled() {
			return ctl.Err()
		}
	} else if err := g.Run(len(pl.Ranges), fr.lane); err != nil {
		return err
	}
	d.fold(y, fr.c, k)
	return nil
}

// fold adds every unit's carry slot onto its head row, serially in unit
// order, once the units have all run: the rounding of a row cut by units
// follows the units alone.
func (d *driver) fold(y, c []float64, k int) {
	for u, row := range d.heads {
		if row >= 0 {
			yr, s := y[int(row)*k:int(row)*k+k], c[u*k:u*k+k]
			for t := range yr {
				yr[t] += s[t]
			}
		}
	}
}

// plan is the default partition policy: the units cut evenly.
func (d *driver) plan(key exec.PlanKey) *exec.Plan {
	return &exec.Plan{Ranges: sched.EvenRows(d.n, key.Workers)}
}

// frame carries one call's arguments to the lanes of its dispatch. Its
// lane function is bound and its cursors are allocated once, when the
// frame is made, so a dispatch on a cached plan allocates nothing.
type frame struct {
	lane  func(w int) // fr.run, bound
	cur   []cursor    // one per lane, reset from the plan's ranges per call
	c     []float64   // the carry slots, k per unit, kept across calls
	d     *driver
	ctl   *exec.Ctl
	y, x  []float64
	k     int
	grain int64 // what the lanes claim by
}

func newFrame(lanes int) *frame {
	fr := &frame{cur: make([]cursor, lanes)}
	fr.lane = fr.run
	return fr
}

// cursor is the claim point of one lane's range: units [next, hi) are not
// yet claimed. Padded to a cache line, so lanes working their own ranges
// do not share one.
type cursor struct {
	next atomic.Int64
	hi   int
	_    [48]byte
}

// run is lane w of the call in the frame.
func (fr *frame) run(w int) {
	fr.d.claim(fr.cur, w, fr.grain, fr.ctl, fr.y, fr.x, fr.c, fr.k)
}

// cancelGrain is the approximate number of work items (nonzeros / padded
// slots, times the RHS count k) in one claimed chunk of a serial call or a
// large parallel one. A chunk is both the interval between a lane's
// cancellation polls and the unit lanes take from each other, so the one
// grain bounds the cancellation latency and the tail imbalance alike: at
// most one chunk per lane. Measured on the 420 000-row, 20-nnz/row skewed
// tier (2-vCPU AVX-512 guest) a chunk takes 0.47 ms where rows are long and
// 0.85 ms where they are short (0.55 and 0.31 items/ns; longer still in a
// 2.6-nnz/row tail); the claim itself — two atomic operations and a binary
// search over cum — is noise beside it.
const cancelGrain = 1 << 18

// chunksPerLane is the fewest chunks a parallel call's lanes are cut into,
// however small the call, since a one-chunk range cannot be shared: on an
// 8 000-row skewed matrix MKL-IE's nonzero-balanced halves take 21–26 and
// 43–51 µs. 4, 8 and 16 were measured (docs/BENCHMARKS.md).
const chunksPerLane = 8

// ctxGrain scales the chunk to the RHS count: a fused k-wide kernel does
// k times the work per matrix item, so the chunk shrinks to keep its
// wall-clock length flat. The floor keeps degenerate k from turning the
// claim loop itself into overhead.
func ctxGrain(k int) int64 { return max(cancelGrain/int64(k), exec.MinGrain) }

// grain is the chunk a lanes-wide dispatch claims by at RHS count k: the
// work cut lanes·chunksPerLane ways, within [exec.MinGrain, ctxGrain(k)].
func (d *driver) grain(k, lanes int) int64 {
	n := int64(lanes * chunksPerLane)
	return min(max((d.work+n-1)/n, exec.MinGrain), ctxGrain(k))
}

// claim is lane w of a range dispatch, and the whole of a serial one. The
// lane takes chunks of about grain work items off the front of its own
// range, then — a lane's time is not its work: rows cost more than cum
// prices them at, and a CPU may be taken away — off the front of every
// other lane's, in ring order, polling ctl before each claim. Each unit is
// claimed once, by CAS, whoever computes it; a lane that finds every range
// drained returns at once.
func (d *driver) claim(cur []cursor, w int, grain int64, ctl *exec.Ctl, y, x, slots []float64, k int) {
	for i := 0; i < len(cur) && !ctl.Cancelled(); {
		c := &cur[(w+i)%len(cur)]
		lo, hi := int(c.next.Load()), c.hi
		if lo >= hi {
			i++
			continue
		}
		// The first boundary past lo whose cumulative work reaches the
		// grain (cum is monotone), or hi: a range of at most one grain is
		// one claim and no search.
		end := hi
		if start := d.kern.cum(lo); d.kern.cum(hi)-start > grain {
			end = lo + 1 + sort.Search(hi-lo-1, func(j int) bool {
				return d.kern.cum(lo+1+j)-start >= grain
			})
		}
		if c.next.CompareAndSwap(int64(lo), int64(end)) {
			d.kern.apply(y, x, slots, k, lo, end)
		}
	}
}

// byColumn multiplies a k-wide block one right-hand side at a time, for
// the formats without a fused kernel (Merge-CSR, CSR5, SparseX): each
// column of X is gathered into a contiguous vector for the single-vector
// dispatch at the call's lane count and the product scattered back into
// Y, so column t is bit for bit that vector's own product. It allocates
// two dense temporaries per call — acceptable off the hot path, which is
// why the hot formats supply fused kernels.
func (d *driver) byColumn(ctl *exec.Ctl, y, x []float64, k, workers int) error {
	rows, cols := d.kern.Rows(), d.kern.Cols()
	xj := make([]float64, cols)
	yj := make([]float64, rows)
	for t := 0; t < k; t++ {
		for c := 0; c < cols; c++ {
			xj[c] = x[c*k+t]
		}
		if err := d.run(ctl, yj, xj, 1, workers); err != nil {
			return err
		}
		for r := 0; r < rows; r++ {
			y[r*k+t] = yj[r]
		}
	}
	return nil
}
