package device

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU(1024, 2) // 8 sets x 2 ways
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("repeat access missed")
	}
	if !c.Access(8) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next-line cold access hit")
	}
	if got := c.Hits(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := c.Misses(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
}

func TestLRUEviction(t *testing.T) {
	// One set, two ways: three distinct lines mapping to the same set must
	// evict the least recently used.
	c := NewLRU(LineBytes*2, 2) // 1 set x 2 ways
	c.Access(0 * LineBytes)
	c.Access(1 * LineBytes)
	c.Access(0 * LineBytes) // refresh line 0
	c.Access(2 * LineBytes) // evicts line 1
	if !c.Access(0 * LineBytes) {
		t.Error("line 0 was evicted despite being recently used")
	}
	if c.Access(1 * LineBytes) {
		t.Error("line 1 should have been evicted")
	}
}

func TestLRUResetAndString(t *testing.T) {
	c := NewLRU(4096, 4)
	c.Access(0)
	c.Access(0)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("Reset did not clear counters")
	}
	if c.Access(0) {
		t.Error("Reset did not clear contents")
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
	if c.HitRate() != 0.0 {
		_ = c.HitRate()
	}
}

func TestLRUFullyAssociativeSequential(t *testing.T) {
	// Streaming through 2x the cache size yields all misses on re-traversal.
	c := NewLRU(LineBytes*16, 16)
	for pass := 0; pass < 2; pass++ {
		for line := uint64(0); line < 32; line++ {
			c.Access(line * LineBytes)
		}
	}
	if c.Hits() != 0 {
		t.Errorf("LRU streaming over 2x capacity should never hit, got %d hits", c.Hits())
	}
}

func TestSimulateXHitRateDenseRow(t *testing.T) {
	// Fully dense rows walk x sequentially: 7/8 of accesses hit the line.
	o := matrix.NewCOO(4, 512, 4*512)
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 512; j++ {
			o.Append(i, j, 1)
		}
	}
	m := o.ToCSR()
	rate := SimulateXHitRate(m, 1<<20, 8)
	// First row: 7/8 in-line hits; later rows fully resident.
	if rate < 0.9 {
		t.Errorf("dense-row hit rate = %g, want > 0.9", rate)
	}
}

func TestSimulateXHitRateScattered(t *testing.T) {
	// Huge sparse random spread with a tiny cache: nearly all misses.
	m := matrix.Random(200, 1<<16, 0.001, 5)
	rate := SimulateXHitRate(m, 4096, 4)
	if rate > 0.3 {
		t.Errorf("scattered hit rate = %g, want < 0.3", rate)
	}
}

func TestXVectorHitRateBounds(t *testing.T) {
	fv := core.FeatureVector{Rows: 1000, Cols: 1000, NNZ: 10000,
		AvgNNZPerRow: 10, CrossRowSim: 0.5, AvgNumNeigh: 1.0, BWScaled: 0.3}
	for _, cacheB := range []int64{0, 1 << 10, 1 << 20, 1 << 30} {
		h := XVectorHitRate(fv, cacheB)
		if h < 0 || h >= 1 {
			t.Errorf("cache %d: hit rate %g outside [0,1)", cacheB, h)
		}
	}
	if XVectorHitRate(core.FeatureVector{}, 1<<20) != 0 {
		t.Error("empty matrix should have zero hit rate")
	}
}

func TestXVectorHitRateMonotoneInCache(t *testing.T) {
	fv := core.FeatureVector{Rows: 100000, Cols: 100000, NNZ: 2000000,
		AvgNNZPerRow: 20, CrossRowSim: 0.5, AvgNumNeigh: 0.5, BWScaled: 0.3}
	prev := -1.0
	for _, cacheB := range []int64{1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30} {
		h := XVectorHitRate(fv, cacheB)
		if h < prev {
			t.Errorf("hit rate decreased with larger cache: %g after %g", h, prev)
		}
		prev = h
	}
}

func TestXVectorHitRateLocalityOrdering(t *testing.T) {
	// The band must exceed the cache so locality, not residency, decides.
	base := core.FeatureVector{Rows: 1 << 21, Cols: 1 << 21, NNZ: 1 << 25,
		AvgNNZPerRow: 16, CrossRowSim: 0.05, AvgNumNeigh: 0.05, BWScaled: 0.8}
	cacheB := int64(8 << 20)
	loose := XVectorHitRate(base, cacheB)

	clustered := base
	clustered.AvgNumNeigh = 1.9
	if XVectorHitRate(clustered, cacheB) <= loose {
		t.Error("more clustering should raise the hit rate")
	}
	similar := base
	similar.CrossRowSim = 0.95
	similar.BWScaled = 0.005 // narrow resident band
	if XVectorHitRate(similar, cacheB) <= loose {
		t.Error("more cross-row similarity on a resident band should raise the hit rate")
	}
}

// TestAnalyticMatchesSimulation cross-validates the closed form against the
// LRU simulator on generated matrices across the locality grid.
func TestAnalyticMatchesSimulation(t *testing.T) {
	cases := []gen.Params{
		{Rows: 3000, Cols: 3000, AvgNNZPerRow: 10, StdNNZPerRow: 3, BWScaled: 0.1, CrossRowSim: 0.1, AvgNumNeigh: 0.1, Seed: 1},
		{Rows: 3000, Cols: 3000, AvgNNZPerRow: 10, StdNNZPerRow: 3, BWScaled: 0.3, CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 2},
		{Rows: 3000, Cols: 3000, AvgNNZPerRow: 10, StdNNZPerRow: 3, BWScaled: 0.6, CrossRowSim: 0.9, AvgNumNeigh: 1.8, Seed: 3},
		{Rows: 3000, Cols: 3000, AvgNNZPerRow: 40, StdNNZPerRow: 10, BWScaled: 0.05, CrossRowSim: 0.5, AvgNumNeigh: 0.5, Seed: 4},
	}
	for i, p := range cases {
		m, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		fv := core.Extract(m)
		for _, cacheB := range []int64{16 << 10, 256 << 10, 4 << 20} {
			sim := SimulateXHitRate(m, cacheB, 8)
			analytic := XVectorHitRate(fv, cacheB)
			if math.Abs(sim-analytic) > 0.25 {
				t.Errorf("case %d cache %dKiB: simulated %.3f vs analytic %.3f",
					i, cacheB>>10, sim, analytic)
			}
		}
	}
}
