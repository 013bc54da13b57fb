package serve

import (
	"context"
	"errors"
	"math"
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

// heldFormat wraps a format so that every Apply blocks until the test lets
// it through: "a kernel call is in flight" becomes a state the test sets,
// not a timing. calls receives each call's k as it starts (buffered past
// any test's call count, so a call never blocks on reporting itself); each
// send on release lets one call run, and closing it lets every call run. A
// held call whose context is cancelled returns the context's error.
type heldFormat struct {
	formats.Format
	calls   chan int
	release chan struct{}
}

func holdFormat(f formats.Format) *heldFormat {
	return &heldFormat{Format: f, calls: make(chan int, 64), release: make(chan struct{})}
}

func (h *heldFormat) Apply(ctx context.Context, y, x []float64, k, workers int) error {
	h.calls <- k
	select {
	case <-h.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return h.Format.Apply(ctx, y, x, k, workers)
}

// started waits for the next held call and returns its k.
func (h *heldFormat) started(t *testing.T) int {
	t.Helper()
	select {
	case k := <-h.calls:
		return k
	case <-time.After(5 * time.Second):
		t.Fatal("no kernel call started")
		return 0
	}
}

// answer is one Multiply's outcome.
type answer struct {
	y     []float64
	batch int
	err   error
}

// send issues one Multiply on its own goroutine and returns where its
// answer will arrive.
func send(co *Coalescer, ctx context.Context, x []float64) <-chan answer {
	out := make(chan answer, 1)
	go func() {
		y, batch, err := co.Multiply(ctx, x)
		out <- answer{y, batch, err}
	}()
	return out
}

// queue sends each vector in turn, waiting for the coalescer to admit it
// before the next, so the queue holds them in slice order.
func queue(t *testing.T, co *Coalescer, xs [][]float64) []<-chan answer {
	t.Helper()
	outs := make([]<-chan answer, len(xs))
	admitted := co.Stats().Requests
	for i, x := range xs {
		outs[i] = send(co, context.Background(), x)
		admitted++
		waitAdmitted(t, co, admitted)
	}
	return outs
}

// receive waits for one answer.
func receive(t *testing.T, out <-chan answer) answer {
	t.Helper()
	select {
	case a := <-out:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("request hung")
		return answer{}
	}
}

// vectors returns n random vectors of length cols.
func vectors(n, cols int, seed int64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = matrix.RandomVector(cols, seed+int64(i))
	}
	return xs
}

// Requests that arrive while a call is in flight, no more than maxBatch of
// them, ride the next call together: one fused kernel call whose columns
// are every caller's own product.
func TestCoalescerBatchesConcurrentRequests(t *testing.T) {
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, 8)
	defer co.Close()

	lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
	if k := h.started(t); k != 1 {
		t.Fatalf("first call carries k = %d, want 1", k)
	}
	const n = 5
	xs := vectors(n, m.Cols, 1)
	outs := queue(t, co, xs)
	close(h.release)

	if a := receive(t, lone); a.err != nil || a.batch != 1 {
		t.Fatalf("held request: batch %d, %v", a.batch, a.err)
	}
	if k := h.started(t); k != n {
		t.Fatalf("queued requests rode a call of k = %d, want one call of %d", k, n)
	}
	fused := kernelColumns(t, h.Format, xs)
	for i, out := range outs {
		a := receive(t, out)
		if a.err != nil || a.batch != n {
			t.Fatalf("request %d: batch %d, %v", i, a.batch, a.err)
		}
		if !bitsEqual(a.y, fused[i]) {
			t.Fatalf("request %d: answer differs from the fused kernel's column", i)
		}
	}
	if st := co.Stats(); st.Requests != n+1 || st.Batches != 2 || st.Coalesced != n || st.FlushWindow != 0 {
		t.Fatalf("stats %+v, want %d requests in 2 batches, %d coalesced", st, n+1, n)
	}
}

// A queue longer than maxBatch splits into calls of at most maxBatch, in
// arrival order: the first maxBatch queued ride the first call.
func TestCoalescerSplitsLongQueueInArrivalOrder(t *testing.T) {
	const maxBatch = 4
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, maxBatch)
	defer co.Close()

	lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
	h.started(t)
	xs := vectors(maxBatch+3, m.Cols, 10)
	outs := queue(t, co, xs)
	close(h.release)

	receive(t, lone)
	if k := h.started(t); k != maxBatch {
		t.Fatalf("second call carries %d, want %d", k, maxBatch)
	}
	if k := h.started(t); k != 3 {
		t.Fatalf("third call carries %d, want 3", k)
	}
	for i, out := range outs {
		a := receive(t, out)
		want := maxBatch
		if i >= maxBatch {
			want = 3
		}
		if a.err != nil || a.batch != want {
			t.Fatalf("request %d: batch %d, %v; want batch %d", i, a.batch, a.err, want)
		}
		if !almostEqual(a.y, refSpMV(m, xs[i])) {
			t.Fatalf("request %d: wrong result", i)
		}
	}
}

// The caller whose call was in flight does not wait for the batch queued
// behind it: it has its answer while that batch's kernel is still held.
func TestCoalescerHeldCallerReturnsFirst(t *testing.T) {
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, 8)
	defer co.Close()

	lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
	h.started(t)
	outs := queue(t, co, vectors(2, m.Cols, 20))
	h.release <- struct{}{} // the lone call only

	if a := receive(t, lone); a.err != nil || a.batch != 1 {
		t.Fatalf("held request: batch %d, %v", a.batch, a.err)
	}
	if k := h.started(t); k != 2 {
		t.Fatalf("queued call carries %d, want 2", k)
	}
	for _, out := range outs {
		select {
		case a := <-out:
			t.Fatalf("queued request answered (%+v) while its kernel is held", a)
		default:
		}
	}
	close(h.release)
	for _, out := range outs {
		if a := receive(t, out); a.err != nil || a.batch != 2 {
			t.Fatalf("queued request: batch %d, %v", a.batch, a.err)
		}
	}
}

// A request that finds the matrix idle runs its own single-vector call at
// once, under its own context: batch 1, one request in one batch, and its
// cancellation cancels its sweep.
func TestCoalescerLoneRequest(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 64)
	defer co.Close()

	x := matrix.RandomVector(m.Cols, 7)
	y, batch, err := co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 1 {
		t.Fatalf("batch = %d, want 1 (lone request)", batch)
	}
	if want := refSpMV(m, x); !almostEqual(y, want) {
		t.Fatal("wrong result")
	}
	if st := co.Stats(); st.Requests != 1 || st.Batches != 1 || st.Coalesced != 0 || st.MeanBatch != 1 {
		t.Fatalf("stats %+v, want 1 request in 1 batch", st)
	}

	h := holdFormat(formats.NewCSR(m))
	held := NewCoalescer(context.Background(), h, 64)
	defer held.Close()
	ctx, cancel := context.WithCancel(context.Background())
	out := send(held, ctx, x)
	h.started(t)
	cancel()
	if a := receive(t, out); !errors.Is(a.err, context.Canceled) {
		t.Fatalf("lone request under a cancelled context: %v, want context.Canceled", a.err)
	}
	// The coalescer went idle again: the next request runs at once.
	out = send(held, context.Background(), x)
	if k := h.started(t); k != 1 {
		t.Fatalf("next call carries %d, want 1", k)
	}
	close(h.release)
	if a := receive(t, out); a.err != nil || a.batch != 1 {
		t.Fatalf("request after the cancelled one: batch %d, %v", a.batch, a.err)
	}
}

// maxBatch <= 1 is the direct path: every request runs its own kernel call
// at once, and calls of one matrix run side by side.
func TestCoalescerDirectPath(t *testing.T) {
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, 1)
	defer co.Close()

	x := matrix.RandomVector(m.Cols, 3)
	a, b := send(co, context.Background(), x), send(co, context.Background(), x)
	h.started(t)
	h.started(t) // both in flight at once: nothing queued
	close(h.release)
	for _, out := range []<-chan answer{a, b} {
		got := receive(t, out)
		if got.err != nil || got.batch != 1 {
			t.Fatalf("batch %d, %v; want 1", got.batch, got.err)
		}
		if want := refSpMV(m, x); !almostEqual(got.y, want) {
			t.Fatal("wrong result")
		}
	}
	st := co.Stats()
	if st.Requests != 2 || st.Batches != 2 || st.Coalesced != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// Multiply's answers are the kernel's own bits on every path a request can
// take — lone, fused behind a held call, batching off, drained across
// Close — now that the kernel and the scatter write into the caller's
// vector.
func TestCoalescerMultiplyBitExact(t *testing.T) {
	m := testMatrix(t)
	f := formats.NewCSR(m)
	const n = 4
	xs := vectors(n, m.Cols, 40)
	fused := kernelColumns(t, f, xs)
	single := kernelColumns(t, f, xs[:1])[0]

	for name, maxBatch := range map[string]int{"lone": 8, "off": 1} {
		co := NewCoalescer(context.Background(), f, maxBatch)
		y, batch, err := co.Multiply(context.Background(), xs[0])
		if err != nil || batch != 1 {
			t.Fatalf("%s: batch %d, %v", name, batch, err)
		}
		if !bitsEqual(y, single) {
			t.Fatalf("%s: answer differs from the single-vector kernel's", name)
		}
		co.Close()
	}

	// behind queues xs behind a held call and returns their answers, with
	// closing run (if any) between queueing and releasing.
	behind := func(closing func(*Coalescer)) []answer {
		h := holdFormat(f)
		co := NewCoalescer(context.Background(), h, 8)
		defer co.Close()
		lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
		h.started(t)
		outs := queue(t, co, xs)
		if closing != nil {
			closing(co)
		}
		close(h.release)
		receive(t, lone)
		as := make([]answer, n)
		for i, out := range outs {
			as[i] = receive(t, out)
		}
		return as
	}
	for name, closing := range map[string]func(*Coalescer){"fused": nil, "drain": (*Coalescer).Close} {
		for i, a := range behind(closing) {
			if a.err != nil || a.batch != n {
				t.Fatalf("%s: request %d: batch %d, %v", name, i, a.batch, a.err)
			}
			if !bitsEqual(a.y, fused[i]) {
				t.Fatalf("%s: answer %d differs from the fused kernel's column", name, i)
			}
		}
	}
}

// A mismatched vector is refused at admission with the typed dimension
// error — the single error table maps it to 400, never 500.
func TestCoalescerDimensionMismatch(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), DefaultMaxBatch)
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

// A queued caller whose context dies gets its context error at once — the
// typed 499 — while the call ahead of it is still held; its siblings in
// the queue still get their answers.
func TestCoalescerCallerCancellation(t *testing.T) {
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, 8)
	defer co.Close()

	lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
	h.started(t)
	ctx, cancel := context.WithCancel(context.Background())
	gone := send(co, ctx, matrix.RandomVector(m.Cols, 1))
	waitAdmitted(t, co, 2)
	xs := vectors(2, m.Cols, 2)
	outs := queue(t, co, xs)
	cancel()
	a := receive(t, gone)
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", a.err)
	}
	if status, code := StatusOf(a.err); status != StatusCanceled || code != "canceled" {
		t.Fatalf("StatusOf = %d/%s, want 499/canceled", status, code)
	}

	close(h.release)
	receive(t, lone)
	for i, out := range outs {
		a := receive(t, out)
		if a.err != nil || a.batch != 3 {
			t.Fatalf("sibling %d: batch %d, %v; want batch 3 (the cancelled caller's x rides too)", i, a.batch, a.err)
		}
		if !almostEqual(a.y, refSpMV(m, xs[i])) {
			t.Fatalf("sibling %d: result corrupted by cancellation", i)
		}
	}
}

// Close with requests queued behind a held call refuses new work at once
// with the typed shutdown error, and the running call still answers every
// queued request.
func TestCoalescerCloseDrainsPendingBatch(t *testing.T) {
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, 64)

	lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
	h.started(t)
	xs := vectors(3, m.Cols, 100)
	outs := queue(t, co, xs)
	co.Close()

	_, _, err := co.Multiply(context.Background(), xs[0])
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-Close err = %v, want ErrShuttingDown", err)
	}
	if status, code := StatusOf(err); status != 503 || code != "shutting_down" {
		t.Fatalf("StatusOf = %d/%s, want 503/shutting_down", status, code)
	}

	close(h.release)
	if a := receive(t, lone); a.err != nil {
		t.Fatalf("held request errored: %v", a.err)
	}
	for i, out := range outs {
		a := receive(t, out)
		if a.err != nil {
			t.Fatalf("drained request errored: %v", a.err)
		}
		if !almostEqual(a.y, refSpMV(m, xs[i])) {
			t.Fatalf("drained request %d: wrong result", i)
		}
	}
	if _, _, err := co.Multiply(context.Background(), xs[0]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("after the drain err = %v, want ErrShuttingDown", err)
	}
}

// A fault injected at the serve.flush dispatch boundary must fail every
// request of the batch with provenance — and the coalescer stays usable.
func TestCoalescerFlushFailpoint(t *testing.T) {
	m := testMatrix(t)
	co := NewCoalescer(context.Background(), formats.NewCSR(m), 8)
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
// must answer every waiter — the held call's caller and the requests
// queued behind it — with the typed cancellation rather than leaving them
// hung.
func TestCoalescerBaseCancelUnblocksWaiters(t *testing.T) {
	m := testMatrix(t)
	base, abort := context.WithCancel(context.Background())
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(base, h, 64)
	defer co.Close()

	// The held call runs under its caller's context, here base itself.
	lone := send(co, base, matrix.RandomVector(m.Cols, 99))
	h.started(t)
	outs := queue(t, co, vectors(2, m.Cols, 1))
	abort()
	for _, out := range append(outs, lone) {
		a := receive(t, out)
		if !errors.Is(a.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", a.err)
		}
		if status, _ := StatusOf(a.err); status != StatusCanceled {
			t.Fatalf("StatusOf = %d, want 499", status)
		}
	}
}
