package failpoint_test

// Chaos suite: random failpoint schedules driven against live workloads
// from every subsystem that declares a site — engine dispatch, the
// decision journal, MatrixMarket reads, and the update layer's
// freeze/rebuild — while readers and writers run concurrently. The
// invariants are the robustness contract, not exact outputs:
//
//   - no fault ever escapes as an uncontained panic or a wrong answer:
//     every operation either succeeds or returns (or panics with, for
//     legacy entry points) an error chaining to failpoint.ErrInjected;
//   - after the storm, with every site disarmed, all state is intact:
//     multiplies are exact, compaction folds, the journal parses.
//
// Run under -race (the CI chaos leg does).

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/matrix"
	"repro/internal/update"
)

// chaosSites is every failpoint site the chaos controller may arm, with
// the specs it randomizes over. exec.worker gets panic actions too: the
// containment layer must convert them; everything else returns errors.
var chaosSites = map[string][]string{
	"exec.worker":    {"error%5", "panic%3", "sleep:1%10", "error*1", "panic*2"},
	"cache.append":   {"enospc%40", "error%40", "enospc*1"},
	"cache.rename":   {"error%60", "error*1"},
	"cache.flock":    {"error%20"},
	"update.freeze":  {"error%50", "error*2"},
	"update.rebuild": {"error%50", "enospc%30", "error*1"},
	"mmio.read":      {"error%50", "enospc%50"},
}

// tolerateInjected runs fn, absorbing a panic only when it chains to an
// injected fault (legacy entry points re-panic contained worker faults;
// anything else is a real bug and re-panics).
func tolerateInjected(t *testing.T, fn func()) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok && errors.Is(err, failpoint.ErrInjected) {
			return
		}
		panic(r)
	}()
	fn()
}

// requireCleanOrInjected fails the test unless err is nil or an injected
// fault (possibly wrapped in a contained panic).
func requireCleanOrInjected(t *testing.T, op string, err error) {
	t.Helper()
	if err == nil || errors.Is(err, failpoint.ErrInjected) {
		return
	}
	t.Errorf("%s: non-injected error escaped: %v", op, err)
}

func TestChaosRandomFailpointSchedules(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) { chaosRound(t, seed) })
	}
}

func chaosRound(t *testing.T, seed int64) {
	prevEnabled := failpoint.SetEnabled(true)
	prevW := exec.SetMaxWorkers(8)
	defer func() {
		failpoint.DisableAll()
		failpoint.SetEnabled(prevEnabled)
		exec.SetMaxWorkers(prevW)
	}()

	duration := 400 * time.Millisecond
	if testing.Short() {
		duration = 120 * time.Millisecond
	}

	const writers = 4
	const rows = 128
	u, err := update.New(matrix.Identity(rows), update.Options{
		Format: "Naive-CSR", Shards: 4, MinCompact: 32, CompactRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop sync.WaitGroup
	done := make(chan struct{})

	// Chaos controller: every few milliseconds rearm a random site with a
	// random spec, or disarm one.
	stop.Add(1)
	go func() {
		defer stop.Done()
		rng := rand.New(rand.NewSource(seed))
		names := make([]string, 0, len(chaosSites))
		for n := range chaosSites {
			names = append(names, n)
		}
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Duration(1+rng.Intn(4)) * time.Millisecond):
			}
			name := names[rng.Intn(len(names))]
			if rng.Intn(4) == 0 {
				failpoint.Disable(name)
				continue
			}
			specs := chaosSites[name]
			if err := failpoint.Enable(name, specs[rng.Intn(len(specs))]); err != nil {
				t.Errorf("Enable(%s): %v", name, err)
			}
		}
	}()

	// Writers: each owns one diagonal cell, adding 1 per iteration and
	// counting locally — the ground truth for the post-storm check. The
	// write path has no failpoint site, so every Add must land.
	counts := make([]int, writers)
	for w := 0; w < writers; w++ {
		stop.Add(1)
		go func(w int) {
			defer stop.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				u.Add(w, w, 1)
				counts[w]++
			}
		}(w)
	}

	// Readers: cancellable multiplies through the engine. Cancelled or
	// fault-poisoned calls are fine; wrong answers and foreign errors are
	// not. Legacy SpMVParallel re-panics contained faults — tolerated.
	for r := 0; r < 2; r++ {
		stop.Add(1)
		go func(r int) {
			defer stop.Done()
			x := make([]float64, rows)
			y := make([]float64, rows)
			for i := range x {
				x[i] = 1
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if r == 0 {
					tolerateInjected(t, func() { u.SpMVParallel(x, y, 4) })
				} else {
					requireCleanOrInjected(t, "Apply", u.Base().Apply(context.Background(), y, x, 1, 4))
				}
			}
		}(r)
	}

	// Compactor: explicit compactions racing the auto trigger; failures
	// must be injected ones, and the overlay must keep serving.
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			requireCleanOrInjected(t, "Compact", u.Compact())
		}
	}()

	// Journal writer: a private decision store hammered with appends and
	// compactions while cache.append/rename/flock faults fire. The store's
	// whole error surface is degradation — nothing here may fail.
	st0 := cache.Open(t.TempDir())
	defer st0.Close()
	dc0 := cache.NewDecisionCache()
	dc0.Attach(st0)
	stop.Add(1)
	go func() {
		defer stop.Done()
		rng := rand.New(rand.NewSource(seed + 1000))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			k := cache.DecisionKey{Fingerprint: uint64(rng.Intn(64)), Device: "host", K: 1}
			dc0.Put(k, cache.Decision{Format: "Naive-CSR", Probed: i%2 == 0})
			if i%64 == 0 {
				requireCleanOrInjected(t, "journal Compact", dc0.Compact())
			}
		}
	}()

	// MatrixMarket reader: a load either parses exactly or reports the
	// injected fault — never a partial matrix.
	const mm = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n"
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			m, err := matrix.ReadMatrixMarket(strings.NewReader(mm))
			if err != nil {
				requireCleanOrInjected(t, "ReadMatrixMarket", err)
				continue
			}
			if m.Rows != 2 || m.NNZ() != 2 {
				t.Errorf("ReadMatrixMarket returned partial matrix: %dx%d nnz=%d", m.Rows, m.Cols, m.NNZ())
			}
		}
	}()

	time.Sleep(duration)
	close(done)
	stop.Wait()

	// Storm over: disarm everything and verify nothing was corrupted.
	failpoint.DisableAll()
	failpoint.SetEnabled(false)

	if err := u.Compact(); err != nil {
		t.Fatalf("Compact after storm: %v", err)
	}
	st := u.Stats()
	if st.FrozenLen != 0 || st.ActiveLen != 0 {
		t.Errorf("overlay not folded after storm: frozen=%d active=%d", st.FrozenLen, st.ActiveLen)
	}
	x := make([]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	u.SpMVParallel(x, y, 4)
	for w := 0; w < writers; w++ {
		if want := 1 + float64(counts[w]); y[w] != want {
			t.Errorf("diagonal %d = %v after storm, want %v (%d adds)", w, y[w], want, counts[w])
		}
	}
	for i := writers; i < rows; i++ {
		if y[i] != 1 {
			t.Errorf("untouched row %d = %v after storm, want 1", i, y[i])
		}
	}

	// Whatever the journal went through — degradation included — the file
	// on disk must still parse: a fresh Open replays it without complaint
	// and reports nothing skipped.
	re := cache.Open(strings.TrimSuffix(st0.Path(), "/decisions.jsonl"))
	defer re.Close()
	rs := re.Stats()
	if rs.Degraded {
		t.Errorf("fresh Open degraded after storm: %s", rs.DegradedReason)
	}
	if rs.Skipped != 0 {
		t.Errorf("journal has %d unparseable lines after storm", rs.Skipped)
	}
}
