package update

import (
	"context"
	"errors"
	"math"
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
			u, err := Wrap(f, m, Options{Format: b.Name, NoAutoCompact: true})
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

// cancelAfterBase is a base format whose Apply runs the real base and
// then cancels the call's context, as a cancel that lands between the
// base's dispatch and the overlay would.
type cancelAfterBase struct {
	formats.Format
	cancel context.CancelFunc
}

func (f cancelAfterBase) Apply(ctx context.Context, y, x []float64, k, workers int) error {
	err := f.Format.Apply(ctx, y, x, k, workers)
	f.cancel()
	return err
}

// TestOverlayStopsOnCancel: a context cancelled once the base has run
// makes Apply return context.Canceled without adding the overlay, frozen
// or active, onto y.
func TestOverlayStopsOnCancel(t *testing.T) {
	const n = 300
	m := matrix.Identity(n)
	b, _ := formats.Lookup("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	u, err := Wrap(cancelAfterBase{f, cancel}, m, Options{Format: "Naive-CSR", NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(n, 11)
	want := append([]float64(nil), x...) // the identity's own product
	for i := 0; i < 3*n; i++ {
		if i == n { // the first row of entries goes to the frozen overlay
			prevFP := failpoint.SetEnabled(true)
			if err := failpoint.Enable("update.rebuild", "error*1"); err != nil {
				t.Fatal(err)
			}
			err := u.Compact()
			failpoint.SetEnabled(prevFP)
			if !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("Compact with a dying rebuild = %v, want the injected fault", err)
			}
		}
		r, c := i%n, (i%n+1+i/n)%n // three distinct off-diagonal cells per row
		u.Set(r, c, 0.5)
		want[r] += 0.5 * x[c]
	}
	if st := u.Stats(); st.FrozenLen == 0 || st.ActiveLen == 0 {
		t.Fatalf("overlay frozen %d, active %d: want both live", st.FrozenLen, st.ActiveLen)
	}
	y := make([]float64, n)
	if err := u.Apply(ctx, y, x, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply cancelled after the base = %v, want context.Canceled", err)
	}
	short := 0
	for i := range y {
		if y[i] != want[i] {
			short++
		}
	}
	if short == 0 {
		t.Error("the overlay was added after the cancel")
	}
}
