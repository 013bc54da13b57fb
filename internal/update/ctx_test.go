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
