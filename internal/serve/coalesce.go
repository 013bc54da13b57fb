package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/formats"
)

// Coalescing defaults: flush a matrix's gathered requests when the batch
// reaches DefaultMaxBatch single-vector multiplies or DefaultWindow after
// the first request armed the window, whichever comes first — the
// inference-serving recipe. Eight is where the fused MultiplyMany kernels'
// per-vector gain flattens (BenchmarkMultiplyMany in internal/formats);
// 200µs is well under one medium-matrix sweep, so a lone request's added
// latency stays below one kernel time.
const (
	DefaultWindow   = 200 * time.Microsecond
	DefaultMaxBatch = 8
)

// pending is one admitted multiply waiting for its batch to flush. The
// flush reads x and writes y until it has sent on done, whether or not the
// caller is still waiting (codec.go has the ownership rule).
type pending struct {
	x, y []float64
	ctx  context.Context
	done chan batchResult // buffered: a flush never blocks on a gone caller
}

// batchResult is what a flush delivers to each request of its batch; the
// product is already in the request's y.
type batchResult struct {
	batch int // how many requests the serving kernel call carried
	err   error
}

// CoalescerStats is a point-in-time view of one matrix's batching.
type CoalescerStats struct {
	Requests    uint64  `json:"requests"`     // admitted multiplies
	Batches     uint64  `json:"batches"`      // kernel calls issued
	Coalesced   uint64  `json:"coalesced"`    // requests served in a batch of > 1
	FlushFull   uint64  `json:"flush_full"`   // flushes at MaxBatch
	FlushWindow uint64  `json:"flush_window"` // flushes at the window deadline
	FlushDrain  uint64  `json:"flush_drain"`  // flushes forced by shutdown drain
	MeanBatch   float64 `json:"mean_batch"`   // Requests / Batches
}

// Coalescer gathers concurrent single-vector multiply requests against one
// hosted matrix into fused MultiplyMany calls: the first request of a
// batch arms a window timer, and the batch flushes when it fills to
// maxBatch or the window lapses, whichever is first. k waiting users cost
// one matrix sweep instead of k (TestCoalescedBatchingGate holds the
// aggregate win to its floor) at a bounded latency premium. All methods
// are safe for concurrent use.
type Coalescer struct {
	f          formats.Format
	rows, cols int
	window     time.Duration
	maxBatch   int
	// base is the server-lifetime context batched kernel calls run under:
	// one request's cancellation must not kill its batch siblings'
	// results, so per-request contexts only govern admission and the
	// caller's own wait. Cancelling base (shutdown past the drain
	// deadline) cancels in-flight kernels, and every waiter gets the
	// typed cancellation.
	base context.Context

	mu     sync.Mutex
	batch  []*pending
	gen    uint64 // bumped per takeLocked; stale window timers no-op
	timer  *time.Timer
	closed bool

	// blocks recycles the gather/scatter staging blocks across flushes.
	blocks sync.Pool

	requests    atomic.Uint64
	batches     atomic.Uint64
	coalesced   atomic.Uint64
	flushFull   atomic.Uint64
	flushWindow atomic.Uint64
	flushDrain  atomic.Uint64
}

// NewCoalescer wraps a built format (plain or updatable) for coalesced
// serving. base is the server-lifetime context (nil: context.Background).
// window <= 0 or maxBatch <= 1 disables gathering: every request runs its
// own single-vector kernel — the sequential baseline the batching gate
// measures against.
func NewCoalescer(base context.Context, f formats.Format, window time.Duration, maxBatch int) *Coalescer {
	if base == nil {
		base = context.Background()
	}
	return &Coalescer{
		f:        f,
		rows:     f.Rows(),
		cols:     f.Cols(),
		window:   window,
		maxBatch: maxBatch,
		base:     base,
	}
}

// Multiply computes y = A*x for one request, batching it with concurrent
// requests against the same matrix. It returns the result vector and the
// size of the kernel batch that served it. The caller's context governs
// its own wait: a cancelled caller returns its context error immediately
// while the batch completes for its siblings. Admission rejects a
// mismatched vector length with formats.ErrDimension — the serving layer
// maps it to a typed 400, never a 500.
func (c *Coalescer) Multiply(ctx context.Context, x []float64) ([]float64, int, error) {
	y := make([]float64, c.rows)
	batch, _, err := c.multiplyInto(ctx, y, x)
	if err != nil {
		return nil, 0, err
	}
	return y, batch, nil
}

// multiplyInto is Multiply into the caller's y (len rows). released
// reports that the coalescer is finished with x and y; it is false only
// when the caller left on ctx.Done() while its batch was still gathering
// or in flight, and then the flush may yet read x and write y.
func (c *Coalescer) multiplyInto(ctx context.Context, y, x []float64) (batch int, released bool, err error) {
	if len(x) != c.cols {
		return 0, true, fmt.Errorf("%w: x has %d entries, matrix has %d columns",
			formats.ErrDimension, len(x), c.cols)
	}

	if c.maxBatch <= 1 || c.window <= 0 {
		// Coalescing off: serve directly under the caller's context.
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return 0, true, ErrShuttingDown
		}
		c.requests.Add(1)
		c.batches.Add(1)
		return 1, true, c.f.Apply(ctx, y, x, 1, exec.MaxWorkers())
	}

	p := &pending{x: x, y: y, ctx: ctx, done: make(chan batchResult, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, true, ErrShuttingDown
	}
	c.requests.Add(1)
	c.batch = append(c.batch, p)
	if len(c.batch) >= c.maxBatch {
		b := c.takeLocked()
		c.mu.Unlock()
		c.flushFull.Add(1)
		c.flush(b) // the filling request runs the flush: no handoff latency
	} else {
		if len(c.batch) == 1 {
			gen := c.gen
			c.timer = time.AfterFunc(c.window, func() { c.onWindow(gen) })
		}
		c.mu.Unlock()
	}

	select {
	case r := <-p.done:
		return r.batch, true, r.err
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// takeLocked detaches the current batch and invalidates its window timer.
func (c *Coalescer) takeLocked() []*pending {
	b := c.batch
	c.batch = nil
	c.gen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return b
}

// onWindow flushes the batch the timer was armed for; a stale generation
// means that batch already flushed full (or drained) and a new one may be
// gathering — leave it its own full window.
func (c *Coalescer) onWindow(gen uint64) {
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	b := c.takeLocked()
	c.mu.Unlock()
	if len(b) > 0 {
		c.flushWindow.Add(1)
		c.flush(b)
	}
}

// flush serves one detached batch: gather the k request vectors into one
// row-major block, run the fused kernel once, scatter each request's
// column back out. Errors — injected faults at the serve.flush site,
// contained kernel panics, base-context cancellation during shutdown —
// propagate to every request of the batch; each admitted request always
// receives exactly one response.
func (c *Coalescer) flush(b []*pending) {
	k := len(b)
	c.batches.Add(1)
	if k > 1 {
		c.coalesced.Add(uint64(k))
	}
	// Fault-injection point at the dispatch boundary (never inside a
	// kernel): a fired site fails the whole batch with provenance, the
	// way a fused-kernel dispatch fault would.
	if err := failpoint.Inject("serve.flush"); err != nil {
		for _, p := range b {
			p.done <- batchResult{batch: k, err: err}
		}
		return
	}
	if k == 1 {
		// A lone request keeps its own context end to end: nothing shares
		// its kernel call, so its cancellation may cancel the sweep.
		p := b[0]
		err := c.f.Apply(c.mergedCtx(p.ctx), p.y, p.x, 1, exec.MaxWorkers())
		p.done <- batchResult{batch: 1, err: err}
		return
	}
	// Gather into the kernel's row-major X[col*k+t] with col as the outer
	// loop: the block is written sequentially and each request vector is
	// read sequentially (k parallel read streams), instead of k full
	// strided passes over the block — the difference is most of the
	// coalescing win on memory-bound matrices.
	x := c.getBlock(c.cols * k)
	for col := 0; col < c.cols; col++ {
		base := col * k
		for t, p := range b {
			x[base+t] = p.x[col]
		}
	}
	y := c.getBlock(c.rows * k)
	err := c.f.Apply(c.base, y, x, k, exec.MaxWorkers())
	if err != nil {
		for _, p := range b {
			p.done <- batchResult{batch: k, err: err}
		}
		c.putBlock(x)
		c.putBlock(y)
		return
	}
	// Scatter with the same orientation: sequential read of Y[r*k+t],
	// k sequential write streams.
	for r := 0; r < c.rows; r++ {
		base := r * k
		for t, p := range b {
			p.y[r] = y[base+t]
		}
	}
	for _, p := range b {
		p.done <- batchResult{batch: k}
	}
	c.putBlock(x)
	c.putBlock(y)
}

// getBlock leases a gather/scatter block of at least n entries from the
// coalescer's pool; flush-rate allocations of multi-megabyte blocks are
// pure overhead on the serving path.
func (c *Coalescer) getBlock(n int) []float64 {
	if v := c.blocks.Get(); v != nil {
		b := v.([]float64)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

func (c *Coalescer) putBlock(b []float64) { c.blocks.Put(b[:cap(b)]) }

// mergedCtx returns the request context unless the server-lifetime base
// context is already cancelled, which must override it (shutdown hard
// deadline).
func (c *Coalescer) mergedCtx(reqCtx context.Context) context.Context {
	if c.base.Err() != nil {
		return c.base
	}
	return reqCtx
}

// Close drains the coalescer: the gathering batch (if any) flushes
// immediately and every later Multiply is refused with ErrShuttingDown.
// Requests admitted before Close still receive their response — the
// serve-job SIGTERM gate asserts none hang.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	b := c.takeLocked()
	c.mu.Unlock()
	if len(b) > 0 {
		c.flushDrain.Add(1)
		c.flush(b)
	}
}

// Stats returns cumulative batching counters.
func (c *Coalescer) Stats() CoalescerStats {
	s := CoalescerStats{
		Requests:    c.requests.Load(),
		Batches:     c.batches.Load(),
		Coalesced:   c.coalesced.Load(),
		FlushFull:   c.flushFull.Load(),
		FlushWindow: c.flushWindow.Load(),
		FlushDrain:  c.flushDrain.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Requests) / float64(s.Batches)
	}
	return s
}
