package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
)

func TestNewCtlNilForUncancellable(t *testing.T) {
	if c := NewCtl(nil); c != nil {
		t.Fatalf("NewCtl(nil) = %v, want nil", c)
	}
	if c := NewCtl(context.Background()); c != nil {
		t.Fatalf("NewCtl(Background) = %v, want nil", c)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if c := NewCtl(ctx); c == nil {
		t.Fatal("NewCtl(cancellable) = nil")
	}
}

func TestCtlCancelledLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCtl(ctx)
	if c.Cancelled() {
		t.Fatal("fresh Ctl reports cancelled")
	}
	cancel()
	if !c.Cancelled() {
		t.Fatal("cancelled Ctl reports live")
	}
	if !c.cancelled.Load() {
		t.Fatal("observation did not latch")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	// Nil receiver: always live, no error.
	var nilCtl *Ctl
	if nilCtl.Cancelled() || nilCtl.Err() != nil {
		t.Fatal("nil Ctl must be inert")
	}
}

func TestPoolContainsWorkerPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	// A panic on a pool-worker lane (not the caller's lane) must not kill
	// the worker; Run returns it as a *PanicError.
	err := p.Run(3, func(w int) {
		if w == 1 {
			panic("kernel fault")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %#v, want *PanicError", err)
	}
	if pe.Worker != 1 || pe.Value != "kernel fault" {
		t.Fatalf("PanicError = worker %d value %v", pe.Worker, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	// The pool must remain fully serviceable on its parked workers.
	var total int64
	for i := 0; i < 50; i++ {
		p.Run(3, func(w int) { atomic.AddInt64(&total, 1) })
	}
	if total != 150 {
		t.Fatalf("post-panic runs executed %d shards, want 150", total)
	}
	if p.Size() != 2 {
		t.Fatalf("pool size %d after contained panic, want 2", p.Size())
	}
}

// TestSpawnRunContainsGoroutinePanic: a grant no pool backs spawns every
// lane but the caller's, and a spawned lane's panic is contained like any
// other.
func TestSpawnRunContainsGoroutinePanic(t *testing.T) {
	g := Grant{workers: 4}
	err := g.Run(4, func(w int) {
		if w == 3 {
			panic(errors.New("spawned fault"))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 3 {
		t.Fatalf("Run = %v, want contained panic on worker 3", err)
	}
	if !errors.Is(pe, pe.Unwrap()) || pe.Unwrap().Error() != "spawned fault" {
		t.Fatalf("Unwrap() = %v", pe.Unwrap())
	}
}

func TestRunCtxConvertsWorkerPanicToError(t *testing.T) {
	restore := SetMaxWorkers(8)
	defer SetMaxWorkers(restore)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := AcquireCtl(4, NewCtl(ctx))
	err := g.Run(4, func(w int) {
		if w == 2 {
			panic("ctx kernel fault")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want *PanicError", err)
	}
	if pe.Value != "ctx kernel fault" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	// The engine must serve subsequent calls on the same shards.
	var total int64
	for i := 0; i < 20; i++ {
		g := Acquire(4)
		g.Run(4, func(w int) { atomic.AddInt64(&total, 1) })
	}
	if total != 80 {
		t.Fatalf("post-panic dispatches ran %d shards, want 80", total)
	}
}

func TestRunCtxPoisonStopsSiblingLanes(t *testing.T) {
	restore := SetMaxWorkers(8)
	defer SetMaxWorkers(restore)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctl := NewCtl(ctx)
	g := AcquireCtl(4, ctl)
	err := g.Run(4, func(w int) {
		if w == 0 {
			panic("poison")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !ctl.Cancelled() {
		t.Fatal("panicking lane did not poison the Ctl")
	}
	// Poison is per call: a fresh Ctl over the same (live) context is clean.
	if NewCtl(ctx).Cancelled() {
		t.Fatal("poison leaked into the context")
	}
}

func TestRunCtxPreCancelledSkipsLanes(t *testing.T) {
	restore := SetMaxWorkers(8)
	defer SetMaxWorkers(restore)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	g := AcquireCtl(4, NewCtl(ctx))
	err := g.Run(4, func(w int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d lanes ran on a pre-cancelled dispatch, want 0", ran.Load())
	}
}

func TestRunCtxNilCtlCompletes(t *testing.T) {
	restore := SetMaxWorkers(8)
	defer SetMaxWorkers(restore)
	var ran atomic.Int64
	g := AcquireCtl(4, nil)
	if err := g.Run(4, func(w int) { ran.Add(1) }); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if ran.Load() != 4 {
		t.Fatalf("ran %d lanes, want 4", ran.Load())
	}
}

func TestRunCtxDeadlineReportsDeadlineExceeded(t *testing.T) {
	restore := SetMaxWorkers(8)
	defer SetMaxWorkers(restore)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	ctl := NewCtl(ctx)
	g := AcquireCtl(4, ctl)
	err := g.Run(4, func(w int) {
		// Chunk-granularity polling, as a kernel would do it.
		for !ctl.Cancelled() {
			time.Sleep(100 * time.Microsecond)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
}

func TestExecWorkerFailpointSurfacesAsError(t *testing.T) {
	prev := failpoint.SetEnabled(true)
	defer func() {
		failpoint.SetEnabled(prev)
		failpoint.DisableAll()
	}()
	if err := failpoint.Enable("exec.worker", "panic*1"); err != nil {
		t.Fatal(err)
	}
	p := NewPool(2)
	defer p.Close()
	err := p.Run(3, func(w int) {})
	var pe *PanicError
	var inj *failpoint.Injected
	if !errors.As(err, &pe) || !errors.As(pe, &inj) || inj.Site != "exec.worker" {
		t.Fatalf("Run = %v, want a *PanicError around the injected exec.worker fault", err)
	}
	// Site fired once (*1) and disarmed: the pool serves cleanly again.
	var total int64
	p.Run(3, func(w int) { atomic.AddInt64(&total, 1) })
	if total != 3 {
		t.Fatalf("post-failpoint run executed %d shards, want 3", total)
	}
}
