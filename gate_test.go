//go:build gate

package spmv_test

// Wall-clock acceptance gates, behind the gate build tag so the default
// test run stays deterministic on any host:
//
//	go test -tags gate -run 'Gate|Budget' ./...

import (
	"context"
	"errors"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/failpoint"
)

// TestCancellationLatencyGate is the acceptance gate for deadline
// propagation: a multiply cancelled early must return context.Canceled
// in a small fraction of the uncancelled sweep time.
func TestCancellationLatencyGate(t *testing.T) {
	forceParallel(t)
	m := bigMatrix(t)
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}

	// Grow k until the uncancelled sweep is long enough to measure a
	// cancellation against (fast hosts need a heavier sweep, not a
	// flakier threshold). The floor must dwarf scheduling jitter: on an
	// oversubscribed single-CPU box the cancelling goroutine itself can
	// wait out a few ~10ms preemption slices before cancel() even runs,
	// so a short sweep would gate on the OS scheduler, not the engine.
	k := 8
	var baseline time.Duration
	for ; k <= 64; k *= 2 {
		x := make([]float64, m.Cols*k)
		y := make([]float64, m.Rows*k)
		for i := range x {
			x[i] = 1
		}
		start := time.Now()
		if err := spmv.MultiplyManyCtx(context.Background(), f, y, x, k); err != nil {
			t.Fatalf("uncancelled MultiplyManyCtx: %v", err)
		}
		baseline = time.Since(start)
		if baseline >= 150*time.Millisecond {
			break
		}
	}
	if k > 64 {
		k = 64
	}
	t.Logf("uncancelled sweep: %v at k=%d", baseline, k)

	x := make([]float64, m.Cols*k)
	y := make([]float64, m.Rows*k)
	for i := range x {
		x[i] = 1
	}

	// Cancel a tenth of the way in; the call must abort well before the
	// sweep would have completed. The 60% bound is deliberately loose —
	// chunk polling responds in well under a millisecond, but CI boxes
	// stall — while still ruling out run-to-completion (100%+). One
	// retry absorbs a single pathological scheduling event; a broken
	// engine runs to completion every time and fails both attempts.
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(baseline / 10)
			cancel()
		}()
		start := time.Now()
		err = spmv.MultiplyManyCtx(ctx, f, y, x, k)
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled MultiplyManyCtx = %v, want context.Canceled", err)
		}
		if elapsed <= baseline*6/10 {
			t.Logf("cancelled after %v (cancel sent at %v, attempt %d)", elapsed, baseline/10, attempt)
			break
		}
		if attempt == 2 {
			t.Fatalf("cancelled multiply took %v of a %v sweep twice; cancellation latency unbounded?", elapsed, baseline)
		}
		t.Logf("attempt %d: cancelled multiply took %v of a %v sweep; retrying once", attempt, elapsed, baseline)
	}

	// A pre-cancelled context never starts the sweep.
	pre, precancel := context.WithCancel(context.Background())
	precancel()
	start := time.Now()
	if err := spmv.MultiplyManyCtx(pre, f, y, x, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled MultiplyManyCtx = %v, want context.Canceled", err)
	}
	if e := time.Since(start); e > baseline/4 {
		t.Errorf("pre-cancelled multiply took %v, want near-immediate return", e)
	}

	// And a deadline already behind us reports DeadlineExceeded.
	dl, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := spmv.MultiplyCtx(dl, f, y[:m.Rows], x[:m.Cols]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline MultiplyCtx = %v, want context.DeadlineExceeded", err)
	}
}

// TestFailpointOverheadBudget is the bench-smoke A/B gate: the failpoint
// hooks on the
// dispatch path must cost <= 2% even in their worst supported
// configuration — framework armed with an empty site table, where every
// Inject takes the slow path's map probe. The default disabled fast path
// (one atomic load) is strictly cheaper than what this measures.
func TestFailpointOverheadBudget(t *testing.T) {
	forceParallel(t)
	m := bigMatrix(t)
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	ctx := context.Background()
	measure := func() time.Duration {
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 9; rep++ {
			start := time.Now()
			if err := spmv.MultiplyCtx(ctx, f, y, x); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	spmv.MultiplyCtx(ctx, f, y, x) // warm plans and pages
	failpoint.DisableAll()
	prev := failpoint.SetEnabled(false)
	off := measure()
	failpoint.SetEnabled(true)
	on := measure()
	failpoint.SetEnabled(prev)

	t.Logf("multiply min-of-9: failpoints off %v, armed-empty %v", off, on)
	if limit := off + off/50; on > limit {
		t.Errorf("armed failpoint hooks cost %v vs %v disabled (> 2%% budget)", on, off)
	}
}
