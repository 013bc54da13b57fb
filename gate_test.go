//go:build gate

package spmv_test

// Wall-clock acceptance gates, behind the gate build tag so the default
// test run stays deterministic on any host:
//
//	go test -tags gate -run 'Gate|Budget' ./...

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/measure"
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
	// Off and armed are one measure.Compare, their single-call rounds
	// interleaved; a candidate flips the switch when it takes over.
	const rounds, minTime = 9, 0
	ctx := context.Background()
	failpoint.DisableAll()
	prev := failpoint.SetEnabled(false)
	defer failpoint.SetEnabled(prev)
	armed := false
	side := func(on bool) func() error {
		return func() error {
			if armed != on {
				failpoint.SetEnabled(on)
				armed = on
			}
			return spmv.MultiplyCtx(ctx, f, y, x)
		}
	}
	res, err := measure.Compare(ctx, []func() error{side(false), side(true)}, rounds, minTime)
	if err == nil {
		err = errors.Join(res[0].Err, res[1].Err)
	}
	if err != nil {
		t.Fatal(err)
	}
	off, on := time.Duration(res[0].MinNs), time.Duration(res[1].MinNs)
	t.Logf("multiply min-of-9: failpoints off %v, armed-empty %v", off, on)
	if limit := off + off/50; on > limit {
		t.Errorf("armed failpoint hooks cost %v vs %v disabled (> 2%% budget)", on, off)
	}
}

// needTwoCPUs skips the scaling gates where a second lane has no CPU of its
// own: they run at the host's own GOMAXPROCS.
func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("needs 2 CPUs, have NumCPU %d and GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
}

// closedLoopP50 is the p50 latency of calls back-to-back ops after warm of
// the same loop: the workers take a few dozen milliseconds to settle on
// their own CPUs and stay hot.
func closedLoopP50(t *testing.T, warm time.Duration, calls int, op func() error) time.Duration {
	t.Helper()
	lat := make([]time.Duration, 0, calls)
	for start := time.Now(); time.Since(start) < warm; {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < calls; i++ {
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[calls/2]
}

// TestParallelNotSlowerThanSerialGate is the acceptance gate for the hot
// handoff: on the cache-resident tier matrix where dispatch cost rivals
// the kernel (8000^2 x 10 nnz/row, the trajectory benchmark's lib-small),
// a closed loop of two-worker multiplies must not lose to the same loop
// on one worker. With a parked-only handoff it did, by the wake each
// multiply paid. It needs two real CPUs, and runs at the host's own
// GOMAXPROCS and worker cap.
func TestParallelNotSlowerThanSerialGate(t *testing.T) {
	needTwoCPUs(t)
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 8000, Cols: 8000, AvgNNZPerRow: 10, StdNNZPerRow: 2.5,
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spmv.FormatByName("MKL-IE")
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
	loop := func(workers int) time.Duration {
		return closedLoopP50(t, 100*time.Millisecond, 4000, func() error { return f.Apply(ctx, y, x, 1, workers) })
	}
	// One retry absorbs a noisy neighbour; a handoff that pays a wake per
	// multiply loses both times.
	for attempt := 1; ; attempt++ {
		serial, parallel := loop(1), loop(2)
		t.Logf("attempt %d: p50 serial %v, two workers %v (%.2fx)", attempt, serial, parallel,
			float64(parallel)/float64(serial))
		if parallel <= serial+serial/20 {
			return
		}
		if attempt == 2 {
			t.Fatalf("two workers p50 %v vs serial %v twice: > 1.05x", parallel, serial)
		}
	}
}

// TestSkewedLanesScaleGate is the acceptance gate for chunk claiming: on
// the trajectory benchmark's lib-stream matrix (420000^2 x 20 nnz/row,
// skew 4: row length decays from 78 in the first decile to 2.6 in the
// last) a closed loop of spmv.Multiply at two workers must run at least
// 1.5x faster than at one. Both formats start their lanes at the driver's
// equal cut of cum, which prices a row as one nonzero while a row costs
// about sixteen nonzeros' worth, so equal cum is not equal time and the
// gate still measures what claiming rescues: lanes that owned their
// ranges read 1.05-1.41x here (MKL-IE from equal nonzeros, Naive-CSR from
// equal rows, nine tenths of the nonzeros on lane 0), lanes that claim
// chunks off each other 1.8-2.0x.
func TestSkewedLanesScaleGate(t *testing.T) {
	needTwoCPUs(t)
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 420000, Cols: 420000, AvgNNZPerRow: 20, StdNNZPerRow: 5,
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	for _, name := range []string{"MKL-IE", "Naive-CSR"} {
		b, _ := spmv.FormatByName(name)
		f, err := b.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		loop := func(workers int) time.Duration {
			defer exec.SetMaxWorkers(exec.SetMaxWorkers(workers))
			return closedLoopP50(t, 200*time.Millisecond, 40, func() error { return spmv.Multiply(f, y, x) })
		}
		// One retry absorbs a noisy neighbour; lanes that wait on the
		// slower of two fixed ranges miss both times.
		for attempt := 1; ; attempt++ {
			one, two := loop(1), loop(2)
			t.Logf("%s attempt %d: p50 one worker %v, two %v (%.2fx)", name, attempt, one, two,
				float64(one)/float64(two))
			if two <= one*2/3 {
				break
			}
			if attempt == 2 {
				t.Fatalf("%s: two workers p50 %v vs one %v twice: < 1.5x", name, two, one)
			}
		}
	}
}
