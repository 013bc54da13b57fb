package formats

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// The claim loop's properties — every unit computed exactly once whoever
// claims it, a late lane's range finished by the others, no claim after a
// poll that saw cancellation — are the driver's, so they are pinned twice:
// on a probe kernel that records what the driver asks of it, where the
// schedule is forced and the verdict is exact, and on every registry format
// with one pool lane held back by the exec.worker failpoint.

// probeUnits x probeCost is 32 chunks at k = 1, 64 units each; at
// subGrainCost the whole call is half of one cancelGrain.
const (
	probeCost    = 4096
	probeChunk   = cancelGrain / probeCost
	probeUnits   = 32 * probeChunk
	subGrainCost = cancelGrain / 2 / probeUnits
)

// probe is a range kernel over probeUnits units, one output row each, of
// equal cost but for an optional spike on one unit. It counts the apply
// calls that covered each unit and runs the test's hook inside every call.
type probe struct {
	driver
	cost    int64 // cum units per unit
	spikeAt int   // the unit that costs spike more
	spike   int64
	seen    [probeUnits]atomic.Int32
	calls   atomic.Int32
	done    atomic.Int32     // units whose apply has returned
	hook    func(lo, hi int) // set between calls only
}

// The probe's apply ignores k — one call per chunk at any k — so it is
// declared fused like any format would be: by name.
func init() { fusedMulti["probe"] = true }

func newProbe() *probe { return newProbeOf(probeCost) }

func newProbeOf(cost int64) *probe { return newSpikedProbe(cost, 0, 0) }

func newSpikedProbe(cost int64, at int, spike int64) *probe {
	p := &probe{cost: cost, spikeAt: at, spike: spike}
	p.bind(p)
	return p
}

func (p *probe) Name() string   { return "probe" }
func (p *probe) Rows() int      { return probeUnits }
func (p *probe) Cols() int      { return 1 }
func (p *probe) NNZ() int64     { return probeUnits }
func (p *probe) Bytes() int64   { return 0 }
func (p *probe) Traits() Traits { return Traits{} }
func (p *probe) units() int     { return probeUnits }
func (p *probe) cum(i int) int64 {
	if i > p.spikeAt {
		return int64(i)*p.cost + p.spike
	}
	return int64(i) * p.cost
}

func (p *probe) apply(y, x, _ []float64, k, lo, hi int) {
	p.calls.Add(1)
	if p.hook != nil {
		p.hook(lo, hi)
	}
	for u := lo; u < hi; u++ {
		p.seen[u].Add(1)
		for t := 0; t < k; t++ {
			y[u*k+t] = x[t] * float64(u)
		}
	}
	p.done.Add(int32(hi - lo))
}

// reset clears the counters for the next call.
func (p *probe) reset(hook func(lo, hi int)) {
	for u := range p.seen {
		p.seen[u].Store(0)
	}
	p.calls.Store(0)
	p.done.Store(0)
	p.hook = hook
}

// ranges is the driver's cut for a workers-wide dispatch: where each lane
// starts claiming, and where the next one does.
func (p *probe) ranges(workers int) []sched.Range {
	fr := newFrame(&p.driver)
	p.cut(fr, workers)
	out := make([]sched.Range, workers)
	for w := range fr.cur {
		out[w] = sched.Range{RowLo: fr.cur[w].lo, RowHi: fr.cur[w].hi}
	}
	return out
}

// checkOnce fails unless the last call, workers wide, covered every unit in
// exactly one apply, wrote every y slot, and cut each range into chunks of
// the call's grain at k: each chunk ends at the first unit boundary whose
// cum reaches the grain past its start, or at its range's end.
func (p *probe) checkOnce(t *testing.T, label string, y, x []float64, k, workers int) {
	t.Helper()
	g := ctxGrain(k)
	if workers > 1 {
		g = p.grain(k, workers)
	}
	want := 0
	for _, r := range p.ranges(workers) {
		for lo := r.RowLo; lo < r.RowHi; want++ {
			end := lo + 1
			if p.cum(r.RowHi)-p.cum(lo) <= g {
				end = r.RowHi
			}
			for end < r.RowHi && p.cum(end)-p.cum(lo) < g {
				end++
			}
			lo = end
		}
	}
	for u := range p.seen {
		if n := p.seen[u].Load(); n != 1 {
			t.Fatalf("%s: unit %d covered by %d apply calls, want 1", label, u, n)
		}
		for c := 0; c < k; c++ {
			if y[u*k+c] != x[c]*float64(u) {
				t.Fatalf("%s: y[%d] = %v, want %v", label, u*k+c, y[u*k+c], x[c]*float64(u))
			}
		}
	}
	if got := int(p.calls.Load()); got != want {
		t.Fatalf("%s: %d apply calls, want %d chunks", label, got, want)
	}
}

// await spins until cond holds; the deadline is the failure path only, so
// the verdict does not depend on how fast the host is.
func await(cond func() bool) bool {
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// TestClaimLoopFinishesAStalledLanesRange holds whichever lane claims the
// first chunk of range 1 inside that chunk until every other unit of the
// call is done. Under range ownership that is a deadlock — the rest of
// range 1 is the stalled lane's — so returning at all proves the others
// took it over, and the counters prove they did so exactly once per unit.
// The serial call runs the same loop on one lane.
func TestClaimLoopFinishesAStalledLanesRange(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(4))
	p := newProbe()
	for _, k := range ctxKs {
		x := matrix.RandomVector(k, int64(k))
		for _, workers := range []int{1, 2, 3, 4} {
			var timedOut atomic.Bool
			var hook func(lo, hi int)
			if workers > 1 {
				stallAt := p.ranges(workers)[1].RowLo
				hook = func(lo, hi int) {
					if lo == stallAt && !await(func() bool { return int(p.done.Load()) == probeUnits-(hi-lo) }) {
						timedOut.Store(true)
					}
				}
			}
			p.reset(hook)
			y := nanFilled(probeUnits * k)
			if err := p.Apply(context.Background(), y, x, k, workers); err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if timedOut.Load() {
				t.Fatalf("k=%d workers=%d: nobody finished the stalled lane's range", k, workers)
			}
			p.checkOnce(t, "stalled lane", y, x, k, workers)
		}
	}
}

// TestEqualWorkCut pins where lanes start: lane w at the first unit whose
// cum reaches w·work/lanes. On the uniform probe that rounds each share up
// to a unit boundary. With unit 100 costing twice all the others together —
// more than a lane's share — lane 1's share ends inside it at four lanes,
// so lane 1 starts where lane 2 does, with an empty range. With the spike
// on the last unit, lane 1 of two starts at the end and has nothing of its
// own. Whichever lane enters the first chunk is held there until every
// other unit is done, so the call returns only because the other lanes,
// the empty one included, took chunks off the ranges that have them; every
// unit is applied exactly once.
func TestEqualWorkCut(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(4))
	const spike = 2 * probeUnits * probeCost
	for _, tc := range []struct {
		at      int
		spike   int64
		workers int
		starts  []int
	}{
		{0, 0, 3, []int{0, 683, 1366}},                   // 2048/3 and 4096/3 rounded up
		{100, spike, 4, []int{0, 101, 101, 512}},         // unit 101 begins at 4197 units of work, unit 512 at 4608
		{probeUnits - 1, spike, 2, []int{0, probeUnits}}, // the last unit holds two thirds of the work
	} {
		label := fmt.Sprintf("spike %d at unit %d, %d lanes", tc.spike, tc.at, tc.workers)
		p := newSpikedProbe(probeCost, tc.at, tc.spike)
		for w, r := range p.ranges(tc.workers) {
			hi := probeUnits
			if w+1 < tc.workers {
				hi = tc.starts[w+1]
			}
			if r.RowLo != tc.starts[w] || r.RowHi != hi {
				t.Fatalf("%s: lane %d has [%d, %d), want [%d, %d)", label, w, r.RowLo, r.RowHi, tc.starts[w], hi)
			}
		}
		var held, timedOut atomic.Bool
		p.reset(func(lo, hi int) {
			if held.CompareAndSwap(false, true) && !await(func() bool { return int(p.done.Load()) == probeUnits-(hi-lo) }) {
				timedOut.Store(true)
			}
		})
		x := []float64{3}
		y := nanFilled(probeUnits)
		if err := p.Apply(context.Background(), y, x, 1, tc.workers); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if timedOut.Load() {
			t.Fatalf("%s: nobody finished the held lane's range", label)
		}
		p.checkOnce(t, label, y, x, 1, tc.workers)
	}
}

// TestSubGrainCallIsCutPerLane: a two-lane call on half a cancelGrain of
// work is cut into chunksPerLane chunks a lane, not one claim a range that
// only its owner could run. Whichever lane claims the first chunk of range
// 1 is held inside it until every other unit of the call is done, so the
// rest of that range can only have been finished by the other lane, and
// every unit once.
func TestSubGrainCallIsCutPerLane(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	p := newProbeOf(subGrainCost)
	if work := p.cum(probeUnits); work >= cancelGrain {
		t.Fatalf("%d work items are not under one cancelGrain", work)
	}
	r1 := p.ranges(2)[1]
	var timedOut atomic.Bool
	var stalled atomic.Int32 // units in the held chunk
	p.reset(func(lo, hi int) {
		if lo != r1.RowLo {
			return
		}
		stalled.Store(int32(hi - lo))
		if !await(func() bool { return int(p.done.Load()) == probeUnits-(hi-lo) }) {
			timedOut.Store(true)
		}
	})
	x := []float64{2}
	y := nanFilled(probeUnits)
	if err := p.Apply(context.Background(), y, x, 1, 2); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("nobody finished the held lane's range")
	}
	if n := int(stalled.Load()); n <= 0 || n >= r1.Rows() {
		t.Fatalf("the held chunk covers %d of range 1's %d units; want a proper part", n, r1.Rows())
	}
	if got := p.calls.Load(); got != 2*chunksPerLane {
		t.Errorf("%d apply calls, want %d chunks per lane", got, chunksPerLane)
	}
	p.checkOnce(t, "sub-grain", y, x, 1, 2)
}

// TestCancelInsideASubGrainCall: a two-lane call under one cancelGrain is
// cancelled once both lanes are inside their first chunks; the hook holds
// the first lane in until the second arrives, and the second until the
// cancellation. Both then stop at their next poll: two chunks applied, the
// rest never (were each range one chunk, those two would be the whole call).
func TestCancelInsideASubGrainCall(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	p := newProbeOf(subGrainCost)
	ctx, cancel := context.WithCancel(context.Background())
	var entered atomic.Int32
	var timedOut atomic.Bool
	p.reset(func(int, int) {
		if entered.Add(1) > 1 {
			await(func() bool { return ctx.Err() != nil })
			return
		}
		timedOut.Store(!await(func() bool { return entered.Load() > 1 }))
		cancel()
	})
	if err := p.Apply(ctx, nanFilled(probeUnits), []float64{1}, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply cancelled in its first chunks = %v, want context.Canceled", err)
	}
	if timedOut.Load() {
		t.Fatal("the second lane never entered a chunk")
	}
	if got := p.calls.Load(); got != 2 {
		t.Errorf("%d of %d chunks applied, want the two the lanes were in", got, 2*chunksPerLane)
	}
	skipped := 0
	for u := range p.seen {
		switch p.seen[u].Load() {
		case 0:
			skipped++
		case 1:
		default:
			t.Fatalf("unit %d computed more than once", u)
		}
	}
	if skipped == 0 {
		t.Error("every unit was computed: the cancellation skipped no chunk")
	}
}

// poolLanesRun is how many lanes pool workers have finished, process-wide.
func poolLanesRun() (n uint64) {
	for _, s := range exec.Stats().Shards {
		n += s.HotHandoffs + s.ParkedWakes
	}
	return n
}

// stolenChunkHook forces one schedule on a two-lane call. No other chunk
// starts before range 0's first, so that one is the caller's own first
// claim; the caller is held inside it until the pool lane has returned,
// so the rest of range 0 can only be computed by the pool lane, which
// gets there after its own range 1: by stealing. The second stolen chunk
// runs act. The pool lane's return — counted by the engine after any
// fault on it has poisoned the call — releases the caller, whose next
// poll must therefore see what act did: every run makes exactly
// 1 + 16 + 2 apply calls.
func stolenChunkHook(act func()) (hook func(lo, hi int), calls int32) {
	var callerIn atomic.Bool
	var stolen atomic.Int32
	before := poolLanesRun()
	return func(lo, _ int) {
		if lo == 0 {
			callerIn.Store(true)
			await(func() bool { return poolLanesRun() > before }) // on a timeout the call count is wrong
			return
		}
		await(callerIn.Load)
		if lo < probeUnits/2 && stolen.Add(1) == 2 {
			act()
		}
	}, 1 + probeUnits/probeChunk/2 + 2
}

// TestCancelInsideAStolenChunk: a cancellation that lands while a lane is
// inside a chunk it stole stops both lanes at their next poll — no claim
// is made after it, no unit is computed twice — and Apply reports the
// context's error. A call on a context already cancelled claims nothing.
func TestCancelInsideAStolenChunk(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	p := newProbe()
	x := []float64{1}

	ctx, cancel := context.WithCancel(context.Background())
	hook, want := stolenChunkHook(cancel)
	p.reset(hook)
	y := nanFilled(probeUnits)
	if err := p.Apply(ctx, y, x, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply cancelled mid-sweep = %v, want context.Canceled", err)
	}
	if got := p.calls.Load(); got != want {
		t.Errorf("%d apply calls, want %d: a lane claimed after the poll that saw the cancellation", got, want)
	}
	for u := range p.seen {
		if n := p.seen[u].Load(); n > 1 {
			t.Fatalf("unit %d computed %d times", u, n)
		}
	}

	p.reset(nil)
	y = nanFilled(probeUnits)
	if err := p.Apply(ctx, y, x, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply on a cancelled context = %v, want context.Canceled", err)
	}
	if p.calls.Load() != 0 || !allNaN(y) {
		t.Errorf("a pre-cancelled call made %d claims (y untouched: %v)", p.calls.Load(), allNaN(y))
	}
}

// TestPanicInsideAStolenChunk: a kernel fault in a stolen chunk comes back
// as *exec.PanicError and poisons the call, so the sibling lane stops at
// its next claim with thirteen chunks still unclaimed, and the instance is
// exact for the next call.
func TestPanicInsideAStolenChunk(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := newProbe()
	x := []float64{3}

	hook, want := stolenChunkHook(func() { panic("probe fault") })
	p.reset(hook)
	err := p.Apply(ctx, nanFilled(probeUnits), x, 1, 2)
	var pe *exec.PanicError
	if !errors.As(err, &pe) || pe.Value != "probe fault" {
		t.Fatalf("Apply with a faulting stolen chunk = %v, want *exec.PanicError carrying the fault", err)
	}
	if got := p.calls.Load(); got != want {
		t.Errorf("%d apply calls, want %d: the sibling lane claimed after the fault poisoned the call", got, want)
	}

	p.reset(nil)
	y := nanFilled(probeUnits)
	if err := p.Apply(ctx, y, x, 1, 2); err != nil {
		t.Fatalf("post-fault Apply: %v", err)
	}
	p.checkOnce(t, "post-fault", y, x, 1, 2)
}

func allNaN(v []float64) bool {
	for _, e := range v {
		if !math.IsNaN(e) {
			return false
		}
	}
	return true
}

// TestLateLaneEveryFormat holds one pool lane back for 50 ms — several
// sweeps — on a skewed matrix of more than eight chunks, for every
// registry format, RHS count and lane count: the others finish its range,
// and y, pre-filled with NaN, must come out bit-identical to the serial
// Apply. The -short (race) run keeps one lane count: a cell of the table
// is 50 ms of sleep and an instrumented sweep.
func TestLateLaneEveryFormat(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(4))
	defer failpoint.SetEnabled(failpoint.SetEnabled(true))
	defer failpoint.Disable("exec.worker")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m := skewTier(t, 110000)
	if work := int64(m.NNZ()); work < 8*ctxGrain(1) {
		t.Fatalf("%d work items are fewer than eight chunks", work)
	}
	lanes := []int{2, 3, 4}
	if testing.Short() {
		lanes = []int{3}
	}
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			if errors.Is(err, ErrBuild) {
				continue
			}
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, k := range ctxKs {
			x := matrix.RandomVector(m.Cols*k, int64(5+k))
			serial := make([]float64, m.Rows*k)
			if err := f.Apply(ctx, serial, x, k, 1); err != nil {
				t.Fatalf("%s k=%d: serial Apply: %v", b.Name, k, err)
			}
			for _, workers := range lanes {
				if err := failpoint.Enable("exec.worker", "sleep:50*1"); err != nil {
					t.Fatal(err)
				}
				got := nanFilled(m.Rows * k)
				if err := f.Apply(ctx, got, x, k, workers); err != nil {
					t.Fatalf("%s k=%d workers=%d: Apply: %v", b.Name, k, workers, err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
						t.Fatalf("%s k=%d workers=%d: slot %d = %v, serial %v", b.Name, k, workers, i, got[i], serial[i])
					}
				}
			}
		}
	}
}
