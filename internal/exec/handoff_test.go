package exec

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// atProcs runs the rest of the test at GOMAXPROCS n. Which workers poll is
// decided per dispatch from GOMAXPROCS, so a fresh pool is not required.
func atProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// taken is how many posted lanes the pool's counters account for.
func taken(p *Pool) uint64 { return p.hot.Load() + p.parked.Load() + p.claims.Load() }

// within fails the test if f has not returned in time: a lost wake-up shows
// as a dispatch that never completes.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still running after %v", what, d)
	}
}

// TestNoLostWakeupAroundThePark posts each lane at about the moment the
// worker gives up polling and parks, sweeping the gap from 20 us under
// spinBudget to 20 us over it in 200 ns steps. The caller's lane waits for
// lane 1 to start, so the caller can never claim it: only the worker can
// complete the dispatch, and one that slept through a post would hang it.
func TestNoLostWakeupAroundThePark(t *testing.T) {
	atProcs(t, 2)
	p := NewPool(1)
	defer p.Close()
	const runs = 4000
	started := make(chan struct{}, 1)
	body := func(w int) {
		if w == 1 {
			started <- struct{}{}
		} else {
			<-started
		}
	}
	within(t, 2*time.Minute, "closed loop across the parking edge", func() {
		for i := 0; i < runs; i++ {
			p.Run(2, body)
			gap := spinBudget + time.Duration(i%201-100)*200*time.Nanosecond
			for t0 := time.Now(); time.Since(t0) < gap; {
			}
		}
	})
	if p.claims.Load() != 0 || taken(p) != runs {
		t.Fatalf("hot %d + parked %d + claims %d, want %d lanes, none claimed",
			p.hot.Load(), p.parked.Load(), p.claims.Load(), runs)
	}
	// How the lanes split is the host's doing (where the OS runs a woken
	// thread), so it is reported, not asserted.
	t.Logf("hot %d, parked %d", p.hot.Load(), p.parked.Load())
}

// TestLeftoverTokenIsOneSpuriousWake: on one P the woken worker cannot run
// before the caller has claimed its lane back (short of a preemption in
// between, hence the repeats), so its token outlives the lane. It must
// wake, find nothing, and park again, leaving slot and channel as a fresh
// park does — and no lane may run twice for it.
func TestLeftoverTokenIsOneSpuriousWake(t *testing.T) {
	atProcs(t, 1)
	p := NewPool(1)
	defer p.Close()
	var ran [2]atomic.Int32
	body := func(w int) { ran[w].Add(1) }
	const runs = 20
	for i := 1; i <= runs; i++ {
		p.Run(2, body)
		if p.hot.Load() != 0 || taken(p) != uint64(i) {
			t.Fatalf("run %d: hot %d, parked %d, claims %d: want %d lanes, none hot",
				i, p.hot.Load(), p.parked.Load(), p.claims.Load(), i)
		}
		// Let the worker have the P for its wake.
		for d := time.Now().Add(5 * time.Second); p.lanes[0].slot.Load() != laneParked; {
			if time.Now().After(d) {
				t.Fatalf("run %d: worker never parked again (slot %d)", i, p.lanes[0].slot.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if n := len(p.wake[0]); n != 0 {
			t.Fatalf("run %d: %d tokens left on the wake channel", i, n)
		}
	}
	if p.claims.Load() == 0 {
		t.Errorf("the caller never claimed a lane back in %d runs on one P", runs)
	}
	if ran[0].Load() != runs || ran[1].Load() != runs {
		t.Fatalf("lanes ran %d and %d times, want %d each", ran[0].Load(), ran[1].Load(), runs)
	}
}

// TestCloseWhilePolling closes pools whose workers have just finished a
// lane and are polling. Every worker must still exit.
func TestCloseWhilePolling(t *testing.T) {
	atProcs(t, 4)
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p := NewPool(3)
		p.Run(4, func(int) {})
		p.Close()
		p.Run(4, func(int) {}) // a closed pool spawns
	}
	for d := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(d) {
			t.Fatalf("%d goroutines left of 600 workers", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOnlyLowWorkersPoll: with the caller on one of GOMAXPROCS CPUs, only
// workers below GOMAXPROCS-1 may poll, and a worker that may not poll parks
// before it retires its lane, so it can never take the next one hot.
func TestOnlyLowWorkersPoll(t *testing.T) {
	const runs = 2000
	body := func(int) {}
	for _, tc := range []struct{ procs, maxHot int }{
		{1, 0},    // nothing polls
		{2, runs}, // worker 0 alone: at most one hot lane per dispatch
	} {
		atProcs(t, tc.procs)
		p := NewPool(3)
		for i := 0; i < runs; i++ {
			p.Run(4, body)
		}
		if got := int(p.spinners.Load()); got > tc.procs-1 {
			t.Errorf("GOMAXPROCS %d: %d workers may poll, want at most %d", tc.procs, got, tc.procs-1)
		}
		if taken(p) != 3*runs {
			t.Errorf("GOMAXPROCS %d: hot %d + parked %d + claims %d, want %d lanes",
				tc.procs, p.hot.Load(), p.parked.Load(), p.claims.Load(), 3*runs)
		}
		if hot := int(p.hot.Load()); hot > tc.maxHot {
			t.Errorf("GOMAXPROCS %d: %d hot handoffs over %d dispatches, want <= %d",
				tc.procs, hot, runs, tc.maxHot)
		}
		p.Close()
	}
}

// TestCallerClaimedLaneFaultsLikeAWorkers: a lane the caller claimed runs
// as a pooled lane, so an injected exec.worker fault and a kernel panic on
// it come back as *PanicError from Run and leave the pool serviceable. One
// P makes the claim certain short of a preemption, so each case repeats
// until the counters show the faulting lane was the caller's.
func TestCallerClaimedLaneFaultsLikeAWorkers(t *testing.T) {
	atProcs(t, 1)
	prev := failpoint.SetEnabled(true)
	defer func() {
		failpoint.SetEnabled(prev)
		failpoint.DisableAll()
	}()
	p := NewPool(1)
	defer p.Close()

	// fault runs one 2-lane dispatch expected to fail on lane 1 and reports
	// whether the caller had claimed that lane.
	fault := func(f func(w int)) (pe *PanicError, claimed bool) {
		before := p.claims.Load()
		errors.As(p.Run(2, f), &pe)
		return pe, p.claims.Load() == before+1
	}
	for name, tc := range map[string]struct {
		arm   func()
		lane  func(w int)
		check func(pe *PanicError) bool
	}{
		"kernel panic": {
			arm: func() {},
			lane: func(w int) {
				if w == 1 {
					panic("claimed lane fault")
				}
			},
			check: func(pe *PanicError) bool { return pe.Worker == 1 && pe.Value == "claimed lane fault" },
		},
		"exec.worker failpoint": {
			arm: func() {
				if err := failpoint.Enable("exec.worker", "panic*1"); err != nil {
					t.Fatal(err)
				}
			},
			lane: func(int) {},
			check: func(pe *PanicError) bool {
				var inj *failpoint.Injected
				return pe.Worker == 1 && errors.As(pe, &inj) && inj.Site == "exec.worker"
			},
		},
	} {
		sawClaim := false
		for try := 0; try < 50 && !sawClaim; try++ {
			tc.arm()
			pe, claimed := fault(tc.lane)
			if pe == nil || !tc.check(pe) {
				t.Fatalf("%s: Run returned %v, want the lane-1 *PanicError", name, pe)
			}
			sawClaim = claimed
			var total atomic.Int32
			p.Run(2, func(int) { total.Add(1) })
			if total.Load() != 2 {
				t.Fatalf("%s: the run after the fault executed %d lanes, want 2", name, total.Load())
			}
		}
		if !sawClaim {
			t.Errorf("%s: the faulting lane was never the caller's in 50 tries", name)
		}
	}

	// The same through a grant on the engine.
	defer SetMaxWorkers(SetMaxWorkers(8))
	resetShards(t, 1)
	sawClaim := false
	for try := 0; try < 50 && !sawClaim; try++ {
		before := Stats().Shards[0].CallerClaims
		g := Acquire(2)
		err := g.Run(2, func(w int) {
			if w == 1 {
				panic("claimed lane fault")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Worker != 1 {
			t.Fatalf("Grant.Run = %v, want the lane-1 *PanicError", err)
		}
		sawClaim = Stats().Shards[0].CallerClaims == before+1
	}
	if !sawClaim {
		t.Error("Grant.Run: the faulting lane was never the caller's in 50 tries")
	}
}
