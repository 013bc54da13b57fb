// Package dataset defines the paper's matrix datasets: the Table I
// artificial feature grid in its three sizes (the ~3K "small", the 16200
// "medium" used for all cross-device analysis, and the 27K "large" used for
// the dataset-size ablation of Fig. 8), and the Table III validation suite
// of 45 widely used real matrices together with their ±30% artificial
// "friends".
package dataset

import (
	"math"
	"math/rand"

	"repro/internal/core"
)

// Table I feature values.
var (
	// FootprintClasses are the f1 ranges in MiB.
	FootprintClasses = [3][2]float64{{4, 32}, {32, 512}, {512, 2048}}
	// AvgNNZValues are the f2 grid points.
	AvgNNZValues = []float64{5, 10, 20, 50, 100, 500}
	// SkewValues are the f3 grid points.
	SkewValues = []float64{0, 100, 1000, 10000}
	// SimValues are the f4.a grid points.
	SimValues = []float64{0.05, 0.5, 0.95}
	// NeighValues are the f4.b grid points.
	NeighValues = []float64{0.05, 0.5, 0.95, 1.4, 1.9}
	// BWValues are the generator's scaled-bandwidth settings.
	BWValues = []float64{0.05, 0.3, 0.6}
)

// Size selects one of the three dataset magnitudes of Section V-E.
type Size int

// Dataset sizes.
const (
	Small  Size = iota // ~3K matrices, SuiteSparse-sized
	Medium             // 16200 matrices, the paper's analysis dataset
	Large              // 27000 matrices, the Fig. 8 ablation
)

// String names the size.
func (s Size) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return "unknown"
}

// footprintSamplesPerClass returns how many log-spaced footprints each
// class contributes: 1 -> 3240 points, 5 -> 16200, 25/3 -> 27000.
func (s Size) footprintSamplesPerClass() int {
	switch s {
	case Small:
		return 1
	case Large:
		return 8 // 24 footprints + one extra on the last class = 25
	default:
		return 5
	}
}

// Footprints returns the f1 sample values for the dataset size.
func (s Size) Footprints() []float64 {
	per := s.footprintSamplesPerClass()
	var out []float64
	for ci, class := range FootprintClasses {
		n := per
		if s == Large && ci == len(FootprintClasses)-1 {
			n = per + 1 // 25 total, giving the paper's 27000 points
		}
		lo, hi := class[0], class[1]
		for i := 0; i < n; i++ {
			// Log-spaced samples strictly inside the class.
			t := (float64(i) + 0.5) / float64(n)
			out = append(out, lo*math.Pow(hi/lo, t))
		}
	}
	return out
}

// Grid returns the full feature-space grid for the dataset size. Matrices
// are square; rows follow from footprint and average row length via the
// CSR byte formula.
func (s Size) Grid() []core.FeatureVector {
	var out []core.FeatureVector
	for _, mb := range s.Footprints() {
		for _, avg := range AvgNNZValues {
			for _, skew := range SkewValues {
				for _, sim := range SimValues {
					for _, neigh := range NeighValues {
						for _, bw := range BWValues {
							out = append(out, Point(mb, avg, skew, sim, neigh, bw))
						}
					}
				}
			}
		}
	}
	return out
}

// Point builds the feature vector of one grid configuration.
func Point(mb, avg, skew, sim, neigh, bw float64) core.FeatureVector {
	rows := int((mb*(1<<20) - 4) / (12*avg + 4))
	if rows < 1 {
		rows = 1
	}
	return core.FeatureVector{
		Rows: rows, Cols: rows,
		NNZ:            int64(math.Round(avg * float64(rows))),
		MemFootprintMB: mb,
		AvgNNZPerRow:   avg,
		SkewCoeff:      skew,
		CrossRowSim:    sim,
		AvgNumNeigh:    neigh,
		BWScaled:       bw,
	}
}

// Sample returns a deterministic subsample of the grid of approximately n
// points, preserving the grid's coverage by striding.
func (s Size) Sample(n int, seed int64) []core.FeatureVector {
	grid := s.Grid()
	if n <= 0 || n >= len(grid) {
		return grid
	}
	rng := rand.New(rand.NewSource(seed))
	stride := len(grid) / n
	out := make([]core.FeatureVector, 0, n)
	for i := rng.Intn(stride); i < len(grid) && len(out) < n; i += stride {
		out = append(out, grid[i])
	}
	return out
}
