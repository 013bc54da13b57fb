package exec

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

func TestPoolRunsEveryShardOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		counts := make([]int32, n)
		if err := p.Run(n, func(w int) { atomic.AddInt32(&counts[w], 1) }); err != nil {
			t.Fatalf("n=%d: Run = %v", n, err)
		}
		for w, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: shard %d ran %d times", n, w, c)
			}
		}
	}
}

func TestPoolReuseAcrossManyRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var total int64
	for i := 0; i < 500; i++ {
		p.Run(3, func(w int) { atomic.AddInt64(&total, int64(w)) })
	}
	if total != 500*3 {
		t.Fatalf("total %d, want %d", total, 500*3)
	}
	if p.Size() != 2 {
		t.Fatalf("pool size %d, want 2", p.Size())
	}
}

func TestPoolNestedRunFallsBackToSpawn(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var inner int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(2, func(w int) {
			// Nested Run from inside a worker must not deadlock: the pool
			// mutex is held, so this takes the spawn fallback.
			p.Run(2, func(int) { atomic.AddInt32(&inner, 1) })
		})
	}()
	<-done
	if inner != 4 {
		t.Fatalf("inner shards ran %d times, want 4", inner)
	}
}

func TestPoolRecoversFromCallerShardPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	err := p.Run(3, func(w int) {
		if w == 0 {
			panic("shard 0 boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Worker != 0 || pe.Value != "shard 0 boom" {
		t.Fatalf("Run = %v, want the caller lane's *PanicError", err)
	}
	// The pool must be fully drained: no stale done tokens may satisfy a
	// later Run's wait before its own workers finish.
	for i := 0; i < 50; i++ {
		counts := make([]int32, 3)
		p.Run(3, func(w int) { atomic.AddInt32(&counts[w], 1) })
		for w, c := range counts {
			if c != 1 {
				t.Fatalf("post-panic run %d: shard %d ran %d times", i, w, c)
			}
		}
	}
}

// TestPoolConcurrentCallers: one caller at a time holds the pool and hands
// lanes to its workers; the other 63 find it busy and spawn. Every lane of
// every call runs once either way, and the pool's own lanes are all
// accounted for.
func TestPoolConcurrentCallers(t *testing.T) {
	const callers, runs = 64, 100
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				p.Run(3, func(int) { atomic.AddInt64(&total, 1) })
			}
		}()
	}
	wg.Wait()
	if total != callers*runs*3 {
		t.Fatalf("total %d, want %d", total, callers*runs*3)
	}
	if taken := p.hot.Load() + p.parked.Load() + p.claims.Load(); taken%2 != 0 || taken > callers*runs*2 {
		t.Fatalf("%d pool lanes taken, want two per pooled call and at most %d", taken, callers*runs*2)
	}
}

func TestPoolRunZeroAllocsWarm(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var sink int64
	f := func(w int) { atomic.AddInt64(&sink, int64(w)) }
	p.Run(4, f) // warm up: start workers
	allocs := testing.AllocsPerRun(100, func() {
		p.Run(4, f)
	})
	if allocs > 0 {
		t.Errorf("warm Run allocates %v times per call, want 0", allocs)
	}
}

// run dispatches f(0..n-1) on the process-wide engine.
func run(n int, f func(w int)) error {
	g := Acquire(n)
	return g.Run(n, f)
}

func TestDefaultPoolRun(t *testing.T) {
	Prestart()
	var total int64
	if err := run(4, func(w int) { atomic.AddInt64(&total, int64(w)+1) }); err != nil {
		t.Fatal(err)
	}
	if total != 1+2+3+4 {
		t.Fatalf("total %d", total)
	}
}

func TestWorkersClamps(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)

	if got := Workers(100*MinGrain, 4); got != 4 {
		t.Errorf("ample work: got %d, want 4", got)
	}
	if got := Workers(100*MinGrain, 99); got != 8 {
		t.Errorf("MaxWorkers cap: got %d, want 8", got)
	}
	if got := Workers(2*MinGrain, 8); got != 2 {
		t.Errorf("grain cap: got %d, want 2", got)
	}
	if got := Workers(MinGrain-1, 8); got != 1 {
		t.Errorf("tiny work: got %d, want 1 (serial fast path)", got)
	}
	if got := Workers(100*MinGrain, 0); got != 1 {
		t.Errorf("requested 0: got %d, want 1", got)
	}
	if got := Workers(0, 5); got != 1 {
		t.Errorf("zero work: got %d, want 1", got)
	}
}

func TestSetMaxWorkersRestore(t *testing.T) {
	prev := SetMaxWorkers(3)
	if MaxWorkers() != 3 {
		t.Fatalf("override not applied")
	}
	SetMaxWorkers(prev)
	if MaxWorkers() != runtime.GOMAXPROCS(0) && prev == 0 {
		t.Fatalf("restore failed")
	}
}

func TestPlanCacheBuildsOncePerKey(t *testing.T) {
	c := NewPlanCache()
	var builds int32
	build := func(k PlanKey) *Plan {
		atomic.AddInt32(&builds, 1)
		return &Plan{Ranges: make([]sched.Range, k.Workers)}
	}
	key := PlanKey{Shard: 0, Domains: 1, Workers: 4}
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plans[g] = c.Get(key, build)
		}(g)
	}
	wg.Wait()
	for _, pl := range plans[1:] {
		if pl != plans[0] {
			t.Fatal("concurrent Get returned different plans")
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	c.Get(PlanKey{Shard: 0, Domains: 1, Workers: 8}, build)
	if builds != 2 || c.Len() != 2 {
		t.Fatalf("second worker count: builds=%d len=%d", builds, c.Len())
	}
	// Placement, not just worker count, keys a plan: the same worker count
	// on another shard, or ganged over several domains, is a new plan.
	c.Get(PlanKey{Shard: 1, Domains: 1, Workers: 4}, build)
	c.Get(PlanKey{Shard: AnyShard, Domains: 2, Workers: 4}, build)
	if builds != 4 || c.Len() != 4 {
		t.Fatalf("per-placement keys: builds=%d len=%d, want 4 and 4", builds, c.Len())
	}
}

func TestPlanCacheWarmGetZeroAllocs(t *testing.T) {
	c := NewPlanCache()
	build := func(PlanKey) *Plan { return &Plan{} }
	key := PlanKey{Shard: 0, Domains: 1, Workers: 4}
	c.Get(key, build)
	allocs := testing.AllocsPerRun(100, func() {
		c.Get(key, build)
	})
	if allocs > 0 {
		t.Errorf("warm Get allocates %v times per call, want 0", allocs)
	}
}
