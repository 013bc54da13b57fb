// The memory-hierarchy substrate of the device models: a trace-driven
// set-associative LRU cache simulator, and a closed-form model of the
// x-vector hit rate during SpMV derived from the paper's locality features
// (avg_num_neigh for spatial locality, cross_row_sim for temporal locality,
// bw_scaled for the active working-set width). The simulator is the
// reference the closed form is cross-validated against in the package
// tests.

package device

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
)

// LineBytes is the cache line granularity used throughout the models.
const LineBytes = 64

// LRU is a set-associative cache with least-recently-used replacement,
// used to simulate x-vector accesses on small matrices.
type LRU struct {
	sets   int
	ways   int
	tags   []uint64 // sets x ways, tag 0 = empty
	stamps []uint64 // LRU clocks
	clock  uint64
	hits   uint64
	misses uint64
}

// NewLRU builds a cache of the given total size and associativity with
// LineBytes lines. Size is rounded down to a whole number of sets; a
// minimum of one set is kept.
func NewLRU(sizeBytes int64, ways int) *LRU {
	if ways < 1 {
		ways = 1
	}
	sets := int(sizeBytes / int64(LineBytes*ways))
	if sets < 1 {
		sets = 1
	}
	return &LRU{
		sets:   sets,
		ways:   ways,
		tags:   make([]uint64, sets*ways),
		stamps: make([]uint64, sets*ways),
	}
}

// Access touches the given byte address and reports whether it hit.
func (c *LRU) Access(addr uint64) bool {
	line := addr / LineBytes
	set := int(line % uint64(c.sets))
	tag := line/uint64(c.sets) + 1 // +1 so tag 0 means empty
	base := set * c.ways
	c.clock++
	victim := base
	oldest := ^uint64(0)
	for w := base; w < base+c.ways; w++ {
		if c.tags[w] == tag {
			c.stamps[w] = c.clock
			c.hits++
			return true
		}
		if c.stamps[w] < oldest {
			oldest = c.stamps[w]
			victim = w
		}
	}
	c.tags[victim] = tag
	c.stamps[victim] = c.clock
	c.misses++
	return false
}

// Hits returns the number of hits so far.
func (c *LRU) Hits() uint64 { return c.hits }

// Misses returns the number of misses so far.
func (c *LRU) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Reset clears contents and counters.
func (c *LRU) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamps[i] = 0
	}
	c.clock, c.hits, c.misses = 0, 0, 0
}

// String describes the geometry.
func (c *LRU) String() string {
	return fmt.Sprintf("LRU{%d sets x %d ways x %dB = %dKiB}",
		c.sets, c.ways, LineBytes, int64(c.sets)*int64(c.ways)*LineBytes/1024)
}

// SimulateXHitRate replays the x-vector access stream of one SpMV pass over
// m through a simulated cache of the given size and returns the hit rate.
// Intended for small matrices in tests and ablations.
func SimulateXHitRate(m *matrix.CSR, cacheBytes int64, ways int) float64 {
	c := NewLRU(cacheBytes, ways)
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, col := range cols {
			c.Access(uint64(col) * 8)
		}
	}
	return c.HitRate()
}

// XVectorHitRate is the closed-form counterpart of SimulateXHitRate used by
// the analytical device models, built from the paper's locality features:
//
//   - spatial: a fraction p = avg_num_neigh/2 of accesses directly follow
//     their left neighbor; 7/8 of those stay inside a 64-byte line. Random
//     placements also land in resident lines with probability given by the
//     band's line density.
//   - temporal: a fraction cross_row_sim of a row's accesses revisit the
//     previous row's columns (within distance 1), which hit if the active
//     band working set (bw_scaled*cols*8 bytes) is cache-resident.
//   - band residency: sparse matrices concentrate accesses in a band that
//     shifts slowly from row to row; while the band fits in cache, each
//     x line is cold-missed once and every later touch hits, bounding the
//     miss rate at one per 8*avg_nz_row accesses of a line.
//   - streaming: when the whole vector fits comfortably in cache, every
//     access after the cold miss hits regardless of pattern.
//
// The model composes these as independent hit opportunities and is
// cross-validated against the LRU simulator in the package tests.
func XVectorHitRate(fv core.FeatureVector, cacheBytes int64) float64 {
	if fv.NNZ == 0 || fv.Cols == 0 || cacheBytes <= 0 {
		return 0
	}
	// Residency of the active band between consecutive rows.
	band := math.Max(fv.BWScaled*float64(fv.Cols)*8, float64(LineBytes))
	residency := clamp01(float64(cacheBytes) * 0.8 / band)

	// Spatial component: run continuations stay in-line 7/8 of the time.
	p := clamp01(fv.AvgNumNeigh / 2)
	spatial := p * 7.0 / 8.0

	// Random placements hit lines already touched in the current row pass:
	// with avg nonzeros spread over band/64 lines, the chance a new access
	// lands in a touched line grows with line density.
	lines := math.Max(band/LineBytes, 1)
	density := clamp01(fv.AvgNNZPerRow / lines)
	spatial = spatial + (1-spatial)*density*residency

	// Temporal component: similar next rows rehit the previous row's lines
	// while the band stays resident.
	temporal := clamp01(fv.CrossRowSim) * residency

	// Band residency: while the active band stays in cache, each line
	// misses only on first touch — one miss per ~8*avg accesses of a line.
	bandHit := residency * (1 - 1/(8*math.Max(fv.AvgNNZPerRow, 0.125)))

	// Whole-vector streaming residency: after the first of avg row passes
	// over a resident vector, everything hits.
	whole := clamp01(float64(cacheBytes) * 0.8 / (float64(fv.Cols) * 8))
	reuse := 1 - 1/math.Max(fv.AvgNNZPerRow, 1) // cold-miss share per column
	streaming := whole * reuse

	hit := spatial + (1-spatial)*temporal
	if bandHit > hit {
		hit = bandHit
	}
	if streaming > hit {
		hit = streaming
	}
	return clamp01(hit * 0.98) // never promise a perfect cache
}
