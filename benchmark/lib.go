package main

import (
	"fmt"
	"os"
	"time"

	spmv "repro"
)

// libTarget is one cold-set-up library instance: a session journaling into
// its own fresh directory and the format Auto chose under it.
type libTarget struct {
	sess *spmv.Session
	f    *spmv.AutoFormat
}

func (t *libTarget) close() {
	if t != nil && t.sess != nil {
		t.sess.Close() // journal handle only; nothing to recover from an error here
	}
}

// tempDir makes a fresh directory under the run's scratch space — never
// os.UserCacheDir()/go-spmv, never outside the checkout.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.scratch, prefix+"-")
}

// libSetup is one cold library set-up, the user-visible path from nothing
// to a first answer: empty journal directory -> session -> Auto with the
// defaults (Probe off, so the choice is a function of matrix and host) ->
// first verified y.
func libSetup(e *env, in *inputs) (*libTarget, time.Duration, error) {
	dir, err := e.tempDir("cache")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	sess, err := spmv.NewSession(spmv.SessionOptions{CacheDir: dir})
	if err != nil {
		return nil, 0, fmt.Errorf("open session: %w", err)
	}
	t := &libTarget{sess: sess}
	if t.f, err = sess.Auto(in.m, spmv.AutoOptions{}); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("auto: %w", err)
	}
	y := make([]float64, in.m.Rows)
	if err := spmv.Multiply(t.f, y, in.xs[0][0]); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("first multiply: %w", err)
	}
	d := time.Since(t0)
	if !matches(y, in.refs[0][0]) {
		t.close()
		return nil, 0, fmt.Errorf("first multiply: result differs from the CSR reference")
	}
	return t, d, nil
}

// coldSetups repeats a cold set-up at least minSetups times, and further
// (to maxSetups) while the set-ups are cheap enough to fit setupBudget, so
// a millisecond-scale set-up still gets a steady median. It keeps the last
// instance for the run and releases each earlier one before the next starts.
func coldSetups[T any](setup func() (T, time.Duration, error), release func(T)) (T, []float64, error) {
	var (
		keep  T
		secs  []float64
		spent time.Duration
	)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			release(keep) // the previous instance must be gone before the next cold start
		}
		t, d, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		keep = t
		spent += d
		secs = append(secs, d.Seconds())
	}
	return keep, secs, nil
}

// libOp returns the closed loop's operation for a library target: one
// spmv.Multiply on the client's next vector. A nil tracer is tracing off.
func libOp(t *libTarget, in *inputs, tr *tracer) opFunc {
	y := make([]float64, in.m.Rows) // one caller, one result buffer
	return func(c, seq int, verify bool) opResult {
		slot := seq % xPoolPerClient
		id := tr.begin("facade.multiply", 0, seq+1)
		t0 := time.Now()
		err := spmv.Multiply(t.f, y, in.xs[c][slot])
		r := opResult{multiply: true, lat: time.Since(t0), ok: err == nil}
		tr.end(id)
		if r.ok && verify {
			r.ok = matches(y, in.refs[c][slot])
		}
		return r
	}
}

// runLib is the untraced run of a library workload: one caller, in
// process, through the public facade.
func runLib(e *env, w workload) (*runResult, error) {
	in, err := makeInputs(w, e.seed, 1, nil, 0)
	if err != nil {
		return nil, err
	}
	ref := newHostRef(in.m, in.xs[0][0], e.clients)
	setupRef := []float64{ref.rate()}
	t, setups, err := coldSetups(func() (*libTarget, time.Duration, error) { return libSetup(e, in) }, (*libTarget).close)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer t.close()
	setupRef = append(setupRef, ref.rate())

	op := libOp(t, in, nil)
	ls := newLoopState(1)
	ls.ref = ref
	warm := ls.closedLoop(warmWindows, e.window(), 1, op, nil)
	timed := ls.closedLoop(e.timedWindows(), e.window(), verifyEvery, op, nil)
	return newRunResult(e, w, in, t.f.Chosen(), setups, setupRef, warm, timed), nil
}
