package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/formats"
)

// DefaultMaxBatch caps how many queued single-vector multiplies ride one
// fused kernel call: eight is where the fused MultiplyMany kernels'
// per-vector gain flattens (BenchmarkMultiplyMany in internal/formats).
const DefaultMaxBatch = 8

// pending is one admitted multiply queued behind the matrix's in-flight
// kernel call. The call that serves it reads x and writes y until it has
// sent on done, whether or not the caller is still waiting (codec.go has
// the ownership rule).
type pending struct {
	x, y []float64
	ctx  context.Context
	done chan batchResult // buffered: a batch never blocks on a gone caller
}

// batchResult is what a batch delivers to each request it carried; the
// product is already in the request's y.
type batchResult struct {
	batch int // how many requests the serving kernel call carried
	err   error
}

// CoalescerStats is a point-in-time view of one matrix's batching.
type CoalescerStats struct {
	Requests  uint64 `json:"requests"`  // admitted multiplies
	Batches   uint64 `json:"batches"`   // kernel calls issued
	Coalesced uint64 `json:"coalesced"` // requests served in a batch of > 1
	// FlushWindow is always 0: no batch waits on a timer. It stays for
	// readers that still compile against it.
	FlushWindow uint64  `json:"flush_window"`
	MeanBatch   float64 `json:"mean_batch"` // Requests / Batches
}

// Coalescer serves concurrent single-vector multiply requests against one
// hosted matrix by group commit: at most one kernel call is in flight. A
// request that finds the matrix idle runs its own single-vector call at
// once; requests that arrive while a call is in flight queue, and when it
// returns, up to maxBatch of them ride the next call as one fused
// MultiplyMany. Nothing waits on a timer, and k queued users cost one
// matrix sweep instead of k (TestCoalescedBatchingGate holds the aggregate
// win to its floor). All methods are safe for concurrent use.
type Coalescer struct {
	f          formats.Format
	rows, cols int
	maxBatch   int
	// base is the server-lifetime context fused kernel calls run under:
	// one request's cancellation must not kill its batch siblings'
	// results, so per-request contexts only govern admission and the
	// caller's own wait. Cancelling base (shutdown past the drain
	// deadline) cancels in-flight kernels, and every waiter gets the
	// typed cancellation.
	base context.Context

	mu     sync.Mutex
	busy   bool       // a kernel call is in flight
	queue  []*pending // arrived while busy; empty whenever idle
	closed bool

	// blocks recycles the gather/scatter staging blocks across batches.
	blocks sync.Pool

	requests  atomic.Uint64
	batches   atomic.Uint64
	coalesced atomic.Uint64
}

// NewCoalescer wraps a built format (plain or updatable) for coalesced
// serving. base is the server-lifetime context (nil: context.Background).
// maxBatch <= 1 disables batching: every request runs its own
// single-vector kernel at once, concurrently with the others — the direct
// path the batching gate measures against.
func NewCoalescer(base context.Context, f formats.Format, maxBatch int) *Coalescer {
	if base == nil {
		base = context.Background()
	}
	return &Coalescer{
		f:        f,
		rows:     f.Rows(),
		cols:     f.Cols(),
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
// when the caller left on ctx.Done() while queued or while its batch was in
// flight, and then that batch may yet read x and write y.
func (c *Coalescer) multiplyInto(ctx context.Context, y, x []float64) (batch int, released bool, err error) {
	if len(x) != c.cols {
		return 0, true, fmt.Errorf("%w: x has %d entries, matrix has %d columns",
			formats.ErrDimension, len(x), c.cols)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, true, ErrShuttingDown
	}
	c.requests.Add(1)
	if c.busy {
		p := &pending{x: x, y: y, ctx: ctx, done: make(chan batchResult, 1)}
		c.queue = append(c.queue, p)
		c.mu.Unlock()
		select {
		case r := <-p.done:
			return r.batch, true, r.err
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
	// Idle (or batching off): this request's own call, on its goroutine.
	c.busy = c.maxBatch > 1
	c.mu.Unlock()
	if c.maxBatch > 1 {
		defer c.handOff()
	}
	return 1, true, c.single(ctx, y, x)
}

// single runs one single-vector kernel call. Nothing shares it, so the
// request keeps its own context end to end: its cancellation may cancel
// the sweep.
func (c *Coalescer) single(ctx context.Context, y, x []float64) error {
	c.batches.Add(1)
	// Fault-injection point at the dispatch boundary (never inside a
	// kernel): a fired site fails the call with provenance, the way a
	// kernel dispatch fault would; runBatch fails a fused call's whole
	// batch the same way.
	if err := failpoint.Inject("serve.flush"); err != nil {
		return err
	}
	return c.f.Apply(c.mergedCtx(ctx), y, x, 1, exec.MaxWorkers())
}

// handOff ends a caller's own call: the requests queued behind it run on a
// fresh goroutine, so the caller returns without waiting for its siblings.
func (c *Coalescer) handOff() {
	if b := c.next(); b != nil {
		go c.drain(b)
	}
}

// drain runs batches until the queue is empty.
func (c *Coalescer) drain(b []*pending) {
	for ; b != nil; b = c.next() {
		c.runBatch(b)
	}
}

// next ends the in-flight call and returns the next one's batch: up to
// maxBatch queued requests, in arrival order. With none queued it returns
// nil and the coalescer goes idle. The queue is only ever non-empty while
// a call is in flight, so no request is left behind.
func (c *Coalescer) next() []*pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.queue
	switch {
	case len(b) == 0:
		c.busy = false
		return nil
	case len(b) > c.maxBatch:
		b, c.queue = b[:c.maxBatch:c.maxBatch], b[c.maxBatch:]
	default:
		c.queue = nil
	}
	return b
}

// runBatch serves one batch of queued requests with one kernel call:
// gather the k request vectors into one row-major block, run the fused
// kernel once, scatter each request's column back out. Errors — injected
// faults at the serve.flush site, contained kernel panics, base-context
// cancellation during shutdown — propagate to every request of the batch;
// each queued request always receives exactly one response.
func (c *Coalescer) runBatch(b []*pending) {
	k := len(b)
	if k == 1 {
		p := b[0]
		p.done <- batchResult{batch: 1, err: c.single(p.ctx, p.y, p.x)}
		return
	}
	c.batches.Add(1)
	c.coalesced.Add(uint64(k))
	if err := failpoint.Inject("serve.flush"); err != nil {
		for _, p := range b {
			p.done <- batchResult{batch: k, err: err}
		}
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
	if err == nil {
		// Scatter with the same orientation: sequential read of Y[r*k+t],
		// k sequential write streams.
		for r := 0; r < c.rows; r++ {
			base := r * k
			for t, p := range b {
				p.y[r] = y[base+t]
			}
		}
	}
	for _, p := range b {
		p.done <- batchResult{batch: k, err: err}
	}
	c.putBlock(x)
	c.putBlock(y)
}

// getBlock leases a gather/scatter block of at least n entries from the
// coalescer's pool; batch-rate allocations of multi-megabyte blocks are
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

// Close refuses every later Multiply with ErrShuttingDown. Requests
// admitted before Close still receive their response — the running call
// drains the queue behind it — and the serve-job SIGTERM gate asserts none
// hang.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Stats returns cumulative batching counters.
func (c *Coalescer) Stats() CoalescerStats {
	s := CoalescerStats{
		Requests:  c.requests.Load(),
		Batches:   c.batches.Load(),
		Coalesced: c.coalesced.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Requests) / float64(s.Batches)
	}
	return s
}
