package formats

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestEngineShardedEquivalence is the wide-call correctness property: with
// a worker count wider than the pool, so that a single call runs lanes on
// every pool worker and spawns the rest, every format still matches its
// serial kernel on every engine test matrix. Run with -race this also
// proves pooled and spawned lanes never share scratch.
func TestEngineShardedEquivalence(t *testing.T) {
	prev := exec.SetMaxWorkers(32)
	defer exec.SetMaxWorkers(prev)
	exec.Prestart()

	for name, m := range engineTestMatrices(t) {
		x := matrix.RandomVector(m.Cols, 77)
		want := make([]float64, m.Rows)
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, ErrBuild) {
					continue
				}
				t.Fatalf("%s on %s: %v", b.Name, name, err)
			}
			f.SpMV(x, want)
			got := make([]float64, m.Rows)
			for i := range got {
				got[i] = math.NaN() // every row must be written
			}
			// Twice: the second call runs on the held frame.
			f.SpMVParallel(x, got, 32)
			f.SpMVParallel(x, got, 32)
			if d := maxAbsDiff(got, want); d > 1e-8 || anyNaN(got) {
				t.Errorf("%s on %s over 32 lanes: differs from serial by %g (NaN=%v)",
					b.Name, name, d, anyNaN(got))
			}
		}
	}
}

// TestConcurrentCallersRouteToDistinctShards is the serving-path property:
// two SpMV calls in flight on one format instance at once — one holding the
// pool, one finding it busy and spawning — share one held lane frame, so
// the second runs on a private one, and both come out bit-identical to
// the serial product. The pooled call is held inside a lane by the
// exec.worker failpoint until the spawned one has finished; under -race
// this proves the two never share a frame.
func TestConcurrentCallersRouteToDistinctShards(t *testing.T) {
	prev := exec.SetMaxWorkers(4)
	defer exec.SetMaxWorkers(prev)
	defer failpoint.SetEnabled(failpoint.SetEnabled(true))
	defer failpoint.Disable("exec.worker")
	exec.Prestart()

	m, err := gen.Generate(gen.Params{
		Rows: 30000, Cols: 30000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newPreset("Naive-CSR", m)
	x := matrix.RandomVector(m.Cols, 41)
	want := make([]float64, m.Rows)
	f.SpMV(x, want)
	pooled, spawned := nanFilled(m.Rows), nanFilled(m.Rows)
	f.SpMVParallel(x, pooled, 4) // warm the frame: both calls below contend for it

	// The sleep only has to outlast the spawned call's start; its end is
	// awaited, not timed.
	if err := failpoint.Enable("exec.worker", "sleep:500*1"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.SpMVParallel(x, pooled, 4)
	}()
	if !await(func() bool { return failpoint.Fired("exec.worker") == 1 }) {
		t.Fatal("the pooled call never reached a pool lane")
	}
	spawnsBefore := exec.SpawnFallbacks()
	f.SpMVParallel(x, spawned, 4)
	if d := exec.SpawnFallbacks() - spawnsBefore; d != 1 {
		t.Errorf("%d spawn fallbacks for the call that met the busy pool, want 1", d)
	}
	wg.Wait()

	for name, y := range map[string][]float64{"pooled": pooled, "spawned": spawned} {
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("%s call: y[%d] = %v, want the serial %v", name, i, y[i], want[i])
			}
		}
	}
}

// TestShardedSteadyStateAllocs: the steady single-caller state stays at the
// engine's alloc budget of zero for every format — the pool and the held
// lane frame are reused.
func TestShardedSteadyStateAllocs(t *testing.T) {
	prev := exec.SetMaxWorkers(4)
	defer exec.SetMaxWorkers(prev)
	exec.Prestart()

	m, err := gen.Generate(gen.Params{
		Rows: 60000, Cols: 60000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 10, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVector(m.Cols, 7)
	y := make([]float64, m.Rows)
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			if errors.Is(err, ErrBuild) {
				continue
			}
			t.Fatalf("%s: %v", b.Name, err)
		}
		for i := 0; i < 4; i++ {
			f.SpMVParallel(x, y, 4)
		}
		allocs := testing.AllocsPerRun(10, func() {
			f.SpMVParallel(x, y, 4)
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs per steady-state SpMVParallel, want 0", b.Name, allocs)
		}
	}
}
