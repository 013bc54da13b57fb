package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/formats"
	"repro/internal/matrix"
)

// refSpMV is the scalar reference the coalescer's answers are checked
// against.
func refSpMV(m *matrix.CSR, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc float64
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			acc += m.Val[p] * x[m.ColIdx[p]]
		}
		y[r] = acc
	}
	return y
}

func testMatrix(t *testing.T) *matrix.CSR {
	t.Helper()
	return matrix.Random(300, 300, 0.02, 42)
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// waitAdmitted blocks until the coalescer has admitted n requests.
func waitAdmitted(t *testing.T, co *Coalescer, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.Stats().Requests < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", co.Stats().Requests, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Eight concurrent requests under a generous window must coalesce into
// one fused kernel call, and every caller must get the same answer the
// scalar reference gives for its own vector.
func TestCoalescerBatchesConcurrentRequests(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 100*time.Millisecond, 8)
	defer co.Close()

	const n = 8
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = matrix.RandomVector(m.Cols, int64(i+1))
	}
	var wg sync.WaitGroup
	batches := make([]int, n)
	errs := make([]error, n)
	ys := make([][]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ys[i], batches[i], errs[i] = co.Multiply(context.Background(), xs[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if want := refSpMV(m, xs[i]); !almostEqual(ys[i], want) {
			t.Fatalf("request %d: wrong result", i)
		}
	}
	st := co.Stats()
	if st.Requests != n {
		t.Fatalf("requests = %d, want %d", st.Requests, n)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no request was coalesced: %+v", st)
	}
	if st.Batches >= n {
		t.Fatalf("batches = %d: nothing fused across %d requests", st.Batches, n)
	}
}

// A partial batch must flush when the window lapses, not wait for
// maxBatch.
func TestCoalescerWindowFlush(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 5*time.Millisecond, 64)
	defer co.Close()

	x := matrix.RandomVector(m.Cols, 7)
	start := time.Now()
	y, batch, err := co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("window flush took %v", elapsed)
	}
	if batch != 1 {
		t.Fatalf("batch = %d, want 1 (lone request)", batch)
	}
	if want := refSpMV(m, x); !almostEqual(y, want) {
		t.Fatal("wrong result")
	}
	if st := co.Stats(); st.FlushWindow != 1 {
		t.Fatalf("flushWindow = %d, want 1: %+v", st.FlushWindow, st)
	}
}

// window <= 0 or maxBatch <= 1 is the sequential baseline: every request
// runs its own kernel call immediately.
func TestCoalescerDirectPath(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 0, 8)
	defer co.Close()

	x := matrix.RandomVector(m.Cols, 3)
	y, batch, err := co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 1 {
		t.Fatalf("batch = %d, want 1", batch)
	}
	if want := refSpMV(m, x); !almostEqual(y, want) {
		t.Fatal("wrong result")
	}
	st := co.Stats()
	if st.Requests != 1 || st.Batches != 1 || st.Coalesced != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// Multiply's answers are the kernel's own bits on every path a request can
// take — lone behind the window, fused in a full batch, coalescing off,
// flushed by the drain — now that the kernel and the scatter write into the
// caller's vector.
func TestCoalescerMultiplyBitExact(t *testing.T) {
	m := testMatrix(t)
	f := formats.NewCSR(m)
	const n = 4
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = matrix.RandomVector(m.Cols, int64(40+i))
	}
	// together sends every vector at once and returns the answers.
	together := func(co *Coalescer, admitted func()) [][]float64 {
		ys := make([][]float64, n)
		var wg sync.WaitGroup
		for i := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				y, batch, err := co.Multiply(context.Background(), xs[i])
				if err != nil || batch != n {
					t.Errorf("request %d: batch %d, %v", i, batch, err)
				}
				ys[i] = y
			}()
		}
		if admitted != nil {
			waitAdmitted(t, co, n)
			admitted()
		}
		wg.Wait()
		return ys
	}
	fused := kernelColumns(t, f, xs)

	for name, co := range map[string]*Coalescer{
		"lone": NewCoalescer(context.Background(), f, time.Millisecond, 8),
		"off":  NewCoalescer(context.Background(), f, 0, 8),
	} {
		y, batch, err := co.Multiply(context.Background(), xs[0])
		if err != nil || batch != 1 {
			t.Fatalf("%s: batch %d, %v", name, batch, err)
		}
		if want := kernelColumns(t, f, xs[:1])[0]; !bitsEqual(y, want) {
			t.Fatalf("%s: answer differs from the single-vector kernel's", name)
		}
		co.Close()
	}

	full := NewCoalescer(context.Background(), f, time.Hour, n)
	for i, y := range together(full, nil) {
		if !bitsEqual(y, fused[i]) {
			t.Fatalf("full batch: answer %d differs from the fused kernel's column", i)
		}
	}
	full.Close()

	drained := NewCoalescer(context.Background(), f, time.Hour, 64)
	for i, y := range together(drained, drained.Close) {
		if !bitsEqual(y, fused[i]) {
			t.Fatalf("drain: answer %d differs from the fused kernel's column", i)
		}
	}
}

// A mismatched vector is refused at admission with the typed dimension
// error — the single error table maps it to 400, never 500.
func TestCoalescerDimensionMismatch(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), DefaultWindow, DefaultMaxBatch)
	defer co.Close()

	_, _, err := co.Multiply(context.Background(), make([]float64, m.Cols+1))
	if !errors.Is(err, formats.ErrDimension) {
		t.Fatalf("err = %v, want formats.ErrDimension", err)
	}
	if status, code := StatusOf(err); status != 400 || code != "dimension_mismatch" {
		t.Fatalf("StatusOf = %d/%s, want 400/dimension_mismatch", status, code)
	}
	if st := co.Stats(); st.Requests != 0 {
		t.Fatalf("refused request counted: %+v", st)
	}
}

// A caller whose context dies while waiting gets its context error
// immediately; the batch still completes for its siblings.
func TestCoalescerCallerCancellation(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 50*time.Millisecond, 64)
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := co.Multiply(ctx, matrix.RandomVector(m.Cols, 1))
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it join the gathering batch
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if status, code := StatusOf(err); status != StatusCanceled || code != "canceled" {
			t.Fatalf("StatusOf = %d/%s, want 499/canceled", status, code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller hung")
	}

	// A sibling admitted to the same batch still gets its answer.
	x := matrix.RandomVector(m.Cols, 2)
	y, _, err := co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := refSpMV(m, x); !almostEqual(y, want) {
		t.Fatal("sibling result corrupted by cancellation")
	}
}

// Close must flush the gathering batch (every admitted request answered)
// and refuse later requests with the typed shutdown error.
func TestCoalescerCloseDrainsPendingBatch(t *testing.T) {
	m := testMatrix(t)
	// A window far longer than the test: only Close can flush.
	co := NewCoalescer(context.Background(), formats.NewCSR(m), time.Hour, 64)

	const n = 3
	type out struct {
		y   []float64
		err error
	}
	outs := make(chan out, n)
	xs := make([][]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = matrix.RandomVector(m.Cols, int64(100+i))
		go func(i int) {
			y, _, err := co.Multiply(context.Background(), xs[i])
			outs <- out{y, err}
		}(i)
	}
	waitAdmitted(t, co, n) // all n gathered before draining
	co.Close()

	for i := 0; i < n; i++ {
		select {
		case o := <-outs:
			if o.err != nil {
				t.Fatalf("drained request errored: %v", o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request hung across Close — drain broken")
		}
	}
	if st := co.Stats(); st.FlushDrain != 1 {
		t.Fatalf("flushDrain = %d, want 1: %+v", st.FlushDrain, st)
	}

	_, _, err := co.Multiply(context.Background(), xs[0])
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-Close err = %v, want ErrShuttingDown", err)
	}
	if status, code := StatusOf(err); status != 503 || code != "shutting_down" {
		t.Fatalf("StatusOf = %d/%s, want 503/shutting_down", status, code)
	}
}

// A fault injected at the serve.flush dispatch boundary must fail every
// request of the batch with provenance — and the coalescer stays usable.
func TestCoalescerFlushFailpoint(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 5*time.Millisecond, 8)
	defer co.Close()

	prev := failpoint.SetEnabled(true)
	defer failpoint.SetEnabled(prev)
	if err := failpoint.Enable("serve.flush", "error*1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("serve.flush")

	_, _, err := co.Multiply(context.Background(), matrix.RandomVector(m.Cols, 9))
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want failpoint.ErrInjected", err)
	}
	if status, code := StatusOf(err); status != 500 || code != "injected_fault" {
		t.Fatalf("StatusOf = %d/%s, want 500/injected_fault", status, code)
	}

	// The site disarmed (*1): the next request succeeds.
	x := matrix.RandomVector(m.Cols, 10)
	y, _, err := co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := refSpMV(m, x); !almostEqual(y, want) {
		t.Fatal("wrong result after failpoint recovery")
	}
}

// Cancelling the server-lifetime base context (the drain hard deadline)
// must turn in-flight waiters loose with the typed cancellation rather
// than leaving them hung.
func TestCoalescerBaseCancelUnblocksWaiters(t *testing.T) {
	m := testMatrix(t)
	base, abort := context.WithCancel(context.Background())
	co := NewCoalescer(base, formats.NewCSR(m), time.Hour, 64)

	errc := make(chan error, 1)
	go func() {
		// Caller context = base: when base dies the wait unblocks even
		// though the hour-long window never fires.
		_, _, err := co.Multiply(base, matrix.RandomVector(m.Cols, 1))
		errc <- err
	}()
	waitAdmitted(t, co, 1)
	abort()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung past base cancellation")
	}
	co.Close()
}
