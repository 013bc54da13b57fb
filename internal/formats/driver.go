package formats

import (
	"context"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"repro/internal/exec"
)

// The kernel contract. The paper holds the harness constant and varies
// only the storage format; this file is that harness. A format supplies a
// kernel — what it computes over a range of its own units, how much work
// those units are, and where each lane starts — and embeds a driver, which
// owns everything else: argument checking, the work·k serial cutoff, engine
// acquisition and release, the per-instance plan cache, the claim loop that
// hands out chunks (the unit of cancellation and of load balance alike), the
// carry-scratch contention policy, and panic containment. No format
// dispatches on its own.

// kernel is what every storage format supplies to its driver.
type kernel interface {
	Format
	// units is the size of the unit space apply ranges over: rows, chunks
	// (SELL-C-s), block rows (BCSR), tiles (CSR5), channels (VSL) or
	// entries (COO).
	units() int
	// cum is a monotone cumulative work measure over units: cum(units())
	// is the work the serial cutoff sees (times k), and differences size
	// the chunks lanes claim. It is evaluated at chunk boundaries only,
	// never in inner loops.
	cum(i int) int64
	// plan is the partition policy: each lane's initial range (and, for
	// carriers, the lane scratch) for key.Workers lanes at RHS count k. A
	// range says where a lane starts claiming, not what it alone computes:
	// a lane that drains its own takes chunks off the others'. Built once
	// per key and cached by the driver.
	plan(key exec.PlanKey, k int) *exec.Plan
	// apply computes units [lo, hi) of the k-wide product: k == 1 is the
	// single-vector loop, k > 1 the fused register tile. The units are
	// whole rows (chunks, block rows) written by no other call, so any
	// lane may run any chunk. Formats not named in fusedMulti only ever see
	// k == 1 (the driver multiplies their blocks one column at a time).
	apply(y, x []float64, k, lo, hi int)
}

// carrier is additionally implemented by the formats whose parallel lanes
// cut inside rows (COO, Merge-CSR at k = 1, CSR5, VSL): a lane cannot
// finish a row it shares with its neighbour, so it parks the partial sum
// in scratch and a serial finish folds the carries into y. A carry belongs
// to a position in the partition — lane w's last row meets lane w+1's first
// — so carried lanes are not claimable: each runs its own range as one
// chunk (a cancelled call stops before un-started lanes, not inside one),
// and the serial path is one apply over the whole unit space.
type carrier interface {
	// carries reports whether dispatches at RHS count k cut inside rows;
	// when false the format is driven as a plain range kernel.
	carries(k int) bool
	// begin prepares y (formats that accumulate zero it) and returns the
	// lane scratch for one call: the plan's own, grown to k, when the
	// caller holds the plan lock, a private copy otherwise.
	begin(pl *exec.Plan, y []float64, k int, private bool) any
	// lane runs lane w of the plan.
	lane(c any, pl *exec.Plan, w int, y, x []float64, k int)
	// finish folds the lanes' carries into y, serially, in lane order.
	finish(c any, y []float64, k int)
}

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
	kern  kernel
	carry carrier  // nil for formats that never cut inside rows
	tail  epilogue // nil for single-part formats
	n     int      // kern.units()
	work  int64    // kern.cum(n)
	fused bool     // apply handles k > 1
	plans exec.PlanCache
}

// bind attaches the driver to the fully assembled format value. Formats
// that embed another format by value bind the outer value last, so the
// driver always calls the outermost kernel; fusedMulti says by name whether
// its apply takes k > 1.
func (d *driver) bind(k kernel) {
	d.Delegates = DelegateTo(k)
	d.kern = k
	d.carry, _ = k.(carrier)
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
	carried := d.carry != nil && d.carry.carries(k)
	workers = exec.Workers(d.work*int64(k), workers)
	if !carried && workers > d.n {
		workers = d.n // carriers size their own lanes in plan
	}
	if workers <= 1 {
		if carried {
			d.kern.apply(y, x, k, 0, d.n)
		} else {
			d.claim([]cursor{{hi: d.n}}, 0, ctl, y, x, k) // a serial call is one lane, from unit 0
		}
		if ctl.Cancelled() {
			return ctl.Err()
		}
		return nil
	}
	g := exec.AcquireCtl(workers, ctl)
	defer g.Release() // no-op after Run; frees the pool if a plan build panics
	key := g.Key()
	key.Multi = k > 1
	pl := d.plans.Get(key, func(key exec.PlanKey) *exec.Plan {
		pl := d.kern.plan(key, k)
		pl.Frame = newFrame(len(pl.Ranges))
		return pl
	})
	// The plan's lane frame and, for carriers, its lane scratch are shared
	// by every call of this width. Another call mid-flight — the pooled one
	// when this one spawns, or the other way round — keeps the lock; this
	// one then takes private ones, so concurrent invocations stay fully
	// parallel and only pay the allocation under real contention.
	fr := pl.Frame.(*frame)
	private := !pl.TryLock()
	if private {
		fr = newFrame(len(pl.Ranges))
	}
	defer func() {
		*fr = frame{lane: fr.lane, cur: fr.cur} // a cached frame must not retain the caller's vectors
		if !private {
			pl.Unlock()
		}
	}()
	fr.d, fr.pl, fr.ctl, fr.y, fr.x, fr.k, fr.carried = d, pl, ctl, y, x, k, carried
	if carried {
		fr.c = d.carry.begin(pl, y, k, private)
	} else {
		for w, r := range pl.Ranges {
			fr.cur[w].next.Store(int64(r.RowLo))
			fr.cur[w].hi = r.RowHi
		}
	}
	if err := g.Run(len(pl.Ranges), fr.lane); err != nil {
		return err
	}
	if carried {
		d.carry.finish(fr.c, y, k)
	}
	return nil
}

// frame carries one call's arguments to the lanes of its dispatch. Its
// lane function is bound and its cursors are allocated once, when the
// frame is made, so a dispatch on a cached plan allocates nothing.
type frame struct {
	lane    func(w int) // fr.run, bound
	cur     []cursor    // one per lane, reset from the plan's ranges per call
	d       *driver
	pl      *exec.Plan
	ctl     *exec.Ctl
	y, x    []float64
	k       int
	carried bool
	c       any // the carrier's lane scratch for this call
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
	if fr.carried {
		fr.d.carry.lane(fr.c, fr.pl, w, fr.y, fr.x, fr.k)
		return
	}
	fr.d.claim(fr.cur, w, fr.ctl, fr.y, fr.x, fr.k)
}

// cancelGrain is the approximate number of work items (nonzeros / padded
// slots, times the RHS count k) in one claimed chunk. A chunk is both the
// interval between a lane's cancellation polls and the unit lanes take
// from each other, so the one grain bounds the cancellation latency and
// the tail imbalance alike: at most one chunk per lane. Measured on the
// 420 000-row, 20-nnz/row skewed tier (2-vCPU AVX-512 guest) a chunk takes
// 0.47 ms where rows are long and 0.85 ms where they are short (0.55 and
// 0.31 items/ns; longer still in a 2.6-nnz/row tail); the claim itself —
// two atomic operations and a binary search over cum — is noise beside it.
const cancelGrain = 1 << 18

// ctxGrain scales the chunk to the RHS count: a fused k-wide kernel does
// k times the work per matrix item, so the chunk shrinks to keep its
// wall-clock length flat. The floor keeps degenerate k from turning the
// claim loop itself into overhead.
func ctxGrain(k int) int64 {
	g := int64(cancelGrain) / int64(k)
	if g < exec.MinGrain {
		g = exec.MinGrain
	}
	return g
}

// claim is lane w of a range dispatch, and the whole of a serial one. The
// lane takes chunks of about ctxGrain(k) work items off the front of its
// own range, then — a lane's time is not its work: rows cost more than cum
// prices them at, and a CPU may be taken away — off the front of every
// other lane's, in ring order, polling ctl before each claim. Each unit is
// claimed once, by CAS, whoever computes it; a lane that finds every range
// drained returns at once.
func (d *driver) claim(cur []cursor, w int, ctl *exec.Ctl, y, x []float64, k int) {
	grain := ctxGrain(k)
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
			d.kern.apply(y, x, k, lo, end)
		}
	}
}

// byColumn multiplies a k-wide block one right-hand side at a time, for
// the formats without a fused kernel (CSR5, SparseX, VSL): each column of
// X is gathered into a contiguous vector for the single-vector dispatch
// and the product scattered back into Y. It allocates two dense
// temporaries per call — acceptable off the hot path, which is why the
// hot formats supply fused kernels.
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
