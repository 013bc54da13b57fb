package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/failpoint"
)

// Ctl is the per-call execution control a cancellable dispatch carries: a
// latched view of one context's cancellation, cheap enough for kernels to
// poll at partition-chunk granularity. A nil *Ctl is valid everywhere and
// means "not cancellable" — Reset returns nil for contexts that can never
// be cancelled, and the one dispatch path pays a nil check for it. A Ctl
// is a value its caller keeps for the call (a dispatch's lane frame, or
// the stack of a serial call), so arming one allocates nothing.
//
// The latch matters for two reasons. First, cost: once cancellation is
// observed, every later poll is one atomic load with no channel select.
// Second, containment: a panicking lane poisons the Ctl, so the sibling
// lanes of the same call stop at their next chunk boundary instead of
// finishing a sweep whose result will be discarded.
type Ctl struct {
	ctx       context.Context
	cancelled atomic.Bool
}

// Reset arms c for one call over ctx, clearing any earlier latch, and
// returns it. Contexts that cannot be cancelled (nil, Background, TODO)
// yield nil: a nil check per lane and per chunk, nothing else.
func (c *Ctl) Reset(ctx context.Context) *Ctl {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	c.ctx = ctx
	c.cancelled.Store(false)
	return c
}

// Cancelled reports (and latches) whether the call should stop. Safe on a
// nil receiver, safe concurrently; the unlatched path is one non-blocking
// channel select, the latched path one atomic load.
func (c *Ctl) Cancelled() bool {
	if c == nil {
		return false
	}
	if c.cancelled.Load() {
		return true
	}
	select {
	case <-c.ctx.Done():
		c.cancelled.Store(true)
		return true
	default:
		return false
	}
}

// Err returns the context's cancellation cause (context.Canceled or
// context.DeadlineExceeded), or nil when the call may proceed.
func (c *Ctl) Err() error {
	if c == nil {
		return nil
	}
	return c.ctx.Err()
}

// poison latches cancellation without a context event: a panicking lane
// calls it so sibling lanes of the same grant stop at their next chunk
// boundary ("poison only that call").
func (c *Ctl) poison() {
	if c != nil {
		c.cancelled.Store(true)
	}
}

// PanicError is a panic from one lane of a dispatch, contained by the
// engine: whoever ran the lane — a pool worker, a spawned goroutine or the
// caller itself — recovered, the dispatch completed, and Run returns the
// first such fault as this error. The shard stays serviceable; only the
// call that panicked is poisoned.
type PanicError struct {
	// Value is the original recovered panic value.
	Value any
	// Worker is the lane id that panicked.
	Worker int
	// Stack is the panicking lane's stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic on worker %d: %v", e.Worker, e.Value)
}

// Unwrap exposes an error panic value (an injected failpoint fault, a
// wrapped kernel error) to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicSlot holds the first contained panic among the lanes that share it.
type panicSlot struct {
	p atomic.Pointer[PanicError]
}

// record stores the first panic; later ones are dropped (the first is the
// root cause, the rest are usually the same fault on sibling lanes).
func (s *panicSlot) record(pe *PanicError) {
	if pe != nil {
		s.p.CompareAndSwap(nil, pe)
	}
}

// take returns and clears the contained panic.
func (s *panicSlot) take() *PanicError { return s.p.Swap(nil) }

// call is what every lane of one dispatch runs: the lane function under
// the grant's control.
type call struct {
	f   func(w int)
	ctl *Ctl
}

// lane is the one way a lane runs, whoever runs it: not at all once the
// control is cancelled, and with a panic contained — returned as the
// lane's fault, the control poisoned so the sibling lanes stop at their
// next chunk boundary. A lane posted to a pool passes the exec.worker
// failpoint first, on the worker and on a caller that claimed it back
// alike.
func (c call) lane(w int, pooled bool) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Value: r, Worker: w, Stack: debug.Stack()}
			c.ctl.poison()
		}
	}()
	if c.ctl.Cancelled() {
		return nil
	}
	if pooled {
		if err := failpoint.Inject("exec.worker"); err != nil {
			panic(err)
		}
	}
	c.f(w)
	return nil
}
