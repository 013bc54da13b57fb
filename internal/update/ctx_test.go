package update

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// TestUpdatableForwardsApply is the Updatable[...] leg of the per-layer
// cancellation and containment table in internal/formats: wrapped around
// every registry format, with a live overlay (frozen and active), Apply
// must match the legacy delegates bit for bit under a live context, return
// context.Canceled untouched when cancelled beforehand, and surface a
// faulting base lane as *exec.PanicError — forwarded from the base
// format's dispatch, not degraded to run-to-completion.
func TestUpdatableForwardsApply(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	dead, kill := context.WithCancel(context.Background())
	kill()
	prevFP := failpoint.SetEnabled(true)
	defer failpoint.SetEnabled(prevFP)
	defer failpoint.Disable("exec.worker")

	for mname, m := range testutil.EngineMatrices(t) {
		for _, b := range formats.Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, formats.ErrBuild) {
					continue
				}
				t.Fatalf("%s on %s: %v", b.Name, mname, err)
			}
			u, err := Wrap(f, m, Options{Format: b.Name, Shards: 4, NoAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ { // frozen overlay ...
				u.Add((i*37)%m.Rows, (i*91)%m.Cols, 0.5)
			}
			// A compaction whose rebuild dies leaves the frozen overlay live.
			if err := failpoint.Enable("update.rebuild", "error*1"); err != nil {
				t.Fatal(err)
			}
			if err := u.Compact(); !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("Compact with a dying rebuild = %v, want the injected fault", err)
			}
			if st := u.Stats(); st.FrozenLen == 0 {
				t.Fatal("no frozen overlay after the failed rebuild")
			}
			for i := 0; i < 50; i++ { // ... plus active log entries
				u.Add((i*53)%m.Rows, (i*17)%m.Cols, 0.25)
			}
			label := u.Name() + " on " + mname
			for _, k := range []int{1, 3, 8} {
				x := matrix.RandomVector(m.Cols*k, int64(5+k))
				want := make([]float64, m.Rows*k)
				if k == 1 {
					u.SpMVParallel(x, want, 8)
				} else {
					u.MultiplyMany(want, x, k)
				}
				got := make([]float64, m.Rows*k)
				if err := u.Apply(live, got, x, k, 8); err != nil {
					t.Fatalf("%s k=%d: Apply: %v", label, k, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d: Apply slot %d = %v, want %v", label, k, i, got[i], want[i])
					}
				}

				for i := range got {
					got[i] = math.NaN()
				}
				if err := u.Apply(dead, got, x, k, 8); !errors.Is(err, context.Canceled) {
					t.Errorf("%s k=%d: Apply on cancelled ctx = %v, want context.Canceled", label, k, err)
				}
				if !math.IsNaN(got[0]) {
					t.Errorf("%s k=%d: cancelled Apply wrote y", label, k)
				}

				if err := failpoint.Enable("exec.worker", "panic*1"); err != nil {
					t.Fatal(err)
				}
				err := u.Apply(live, got, x, k, 8)
				var pe *exec.PanicError
				if !errors.As(err, &pe) || !errors.Is(err, failpoint.ErrInjected) {
					t.Fatalf("%s k=%d: Apply with a faulting lane = %v, want *exec.PanicError chaining the injected fault", label, k, err)
				}
				if err := u.Apply(live, got, x, k, 8); err != nil {
					t.Fatalf("%s k=%d: post-fault Apply: %v", label, k, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d: post-fault slot %d = %v, want %v", label, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// activeOnly returns an Updatable whose parallel work is all in the active
// log: a 3000-row diagonal base (under MinGrain, so its sweep is serial
// and never reaches the pool) under 9000 distinct overlay cells, which at
// four workers make a two-lane active pass. It raises the worker cap for
// the test and arms the failpoint framework.
func activeOnly(t *testing.T) (u *Updatable, x, want []float64) {
	t.Helper()
	prev := exec.SetMaxWorkers(4)
	prevFP := failpoint.SetEnabled(true)
	t.Cleanup(func() {
		failpoint.Disable("exec.worker")
		failpoint.SetEnabled(prevFP)
		exec.SetMaxWorkers(prev)
	})
	const n = 3000
	m := matrix.Identity(n)
	b, _ := formats.Lookup("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	u, err = Wrap(f, m, Options{Format: "Naive-CSR", NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	x = matrix.RandomVector(n, 11)
	want = append([]float64(nil), x...) // the identity's own product
	for i := 0; i < 9000; i++ {
		r, c := i%n, (i%n+1+i/n)%n // three distinct off-diagonal cells per row
		u.Set(r, c, 0.5)
		want[r] += 0.5 * x[c]
	}
	return u, x, want
}

// TestActivePassContainsLaneFault: a fault on a lane of the active-log pass
// comes back from Apply as *exec.PanicError, never as a panic, and the next
// Apply on the same engine is exact.
func TestActivePassContainsLaneFault(t *testing.T) {
	u, x, want := activeOnly(t)
	y := make([]float64, len(want))
	if err := failpoint.Enable("exec.worker", "panic*1"); err != nil {
		t.Fatal(err)
	}
	err := u.Apply(context.Background(), y, x, 1, 4)
	var pe *exec.PanicError
	if !errors.As(err, &pe) || !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Apply with a faulting active lane = %v, want *exec.PanicError chaining the injected fault", err)
	}
	if err := u.Apply(context.Background(), y, x, 1, 4); err != nil {
		t.Fatalf("post-fault Apply: %v", err)
	}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("post-fault y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// TestActivePassStopsOnCancel: a context cancelled while a lane of the
// active pass is held back returns context.Canceled, and that lane skips
// its log shards instead of finishing a result nobody will read.
func TestActivePassStopsOnCancel(t *testing.T) {
	u, x, want := activeOnly(t)
	y := make([]float64, len(want))
	// The one pooled lane sleeps at the failpoint, past the gate; the
	// context is cancelled as soon as the site has fired.
	if err := failpoint.Enable("exec.worker", "sleep:200*1"); err != nil {
		t.Fatal(err)
	}
	fired := failpoint.Fired("exec.worker")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for failpoint.Fired("exec.worker") == fired && ctx.Err() == nil {
			runtime.Gosched()
		}
		cancel()
	}()
	if err := u.Apply(ctx, y, x, 1, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply cancelled inside the active pass = %v, want context.Canceled", err)
	}
	short := 0
	for i := range y {
		if y[i] != want[i] {
			short++
		}
	}
	if short == 0 {
		t.Error("the held-back lane ran its log shards after the cancel")
	}
}
