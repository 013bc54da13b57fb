// Package gen implements the paper's artificial matrix generator
// (Section III-B, Listing 1). Given a target feature vector — average and
// standard deviation of nonzeros per row, skew coefficient, scaled bandwidth,
// cross-row similarity and average number of neighbors — it produces a
// concrete CSR matrix whose measured features approximate the request.
//
// The construction follows the paper:
//
//  1. Row sizes are drawn from the requested distribution
//     (normal N(avg, std) by default).
//  2. Skew is imposed with an exponentially decreasing profile
//     MAX * exp(-C*i/rows), where MAX = avg*(1+skew) and C is solved so the
//     profile's mean equals the requested average; the totals are then
//     re-balanced so the combined average matches exactly.
//  3. Nonzeros are placed row by row: first, column positions of the
//     previous row are duplicated with probability cross_row_sim; the rest
//     are placed uniformly inside a bandwidth window of bw_scaled*cols
//     columns; after every random placement, adjacent neighbors are appended
//     with probability avg_num_neigh/2 until the dice roll fails, which
//     yields geometric run lengths and an expected per-element neighbor
//     count of exactly avg_num_neigh.
//
// Generation is deterministic in Params.Seed and independent of the worker
// count: rows are split into fixed-size chunks, each driven by its own
// splitmix-derived PRNG stream.
package gen

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Distribution selects the base row-size distribution.
type Distribution int

// Supported row-size distributions.
const (
	Normal  Distribution = iota // N(avg, std), the paper's choice
	Uniform                     // uniform with matching mean and variance
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Normal:
		return "normal"
	case Uniform:
		return "uniform"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Params mirrors the artificial_matrix_generation signature of Listing 1.
type Params struct {
	Rows, Cols   int
	AvgNNZPerRow float64
	StdNNZPerRow float64
	Dist         Distribution
	SkewCoeff    float64 // (max-avg)/avg target; 0 means balanced
	BWScaled     float64 // row bandwidth as a fraction of Cols, in (0,1]
	CrossRowSim  float64 // probability of duplicating previous-row columns
	AvgNumNeigh  float64 // target same-row neighbor count, in [0,2)
	Seed         int64
}

// chunkRows is the fixed generation chunk; results do not depend on the
// worker count because chunk boundaries depend only on Rows.
const chunkRows = 4096

// ErrParams reports an invalid generator configuration.
var ErrParams = errors.New("gen: invalid parameters")

// Validate checks parameter ranges.
func (p Params) Validate() error {
	switch {
	case p.Rows <= 0 || p.Cols <= 0 || p.Rows > math.MaxInt32 || p.Cols > math.MaxInt32:
		return fmt.Errorf("%w: shape %dx%d", ErrParams, p.Rows, p.Cols)
	case p.AvgNNZPerRow <= 0:
		return fmt.Errorf("%w: avg nnz/row %g", ErrParams, p.AvgNNZPerRow)
	case p.AvgNNZPerRow > float64(p.Cols):
		return fmt.Errorf("%w: avg nnz/row %g exceeds cols %d", ErrParams, p.AvgNNZPerRow, p.Cols)
	case p.StdNNZPerRow < 0:
		return fmt.Errorf("%w: std nnz/row %g", ErrParams, p.StdNNZPerRow)
	case p.SkewCoeff < 0:
		return fmt.Errorf("%w: skew %g", ErrParams, p.SkewCoeff)
	case p.BWScaled < 0 || p.BWScaled > 1:
		return fmt.Errorf("%w: bw_scaled %g outside [0,1]", ErrParams, p.BWScaled)
	case p.CrossRowSim < 0 || p.CrossRowSim > 1:
		return fmt.Errorf("%w: cross_row_sim %g outside [0,1]", ErrParams, p.CrossRowSim)
	case p.AvgNumNeigh < 0 || p.AvgNumNeigh >= 2:
		return fmt.Errorf("%w: avg_num_neigh %g outside [0,2)", ErrParams, p.AvgNumNeigh)
	}
	return nil
}

// RowsForFootprint returns the row count for which a square CSR matrix with
// the given average nonzeros per row occupies approximately mb MiB
// (12 bytes per nonzero + 4 per row-pointer entry, as in the paper's f1).
func RowsForFootprint(mb, avgNNZ float64) int {
	rows := (mb*(1<<20) - 4) / (12*avgNNZ + 4)
	if rows < 1 {
		return 1
	}
	return int(rows)
}

// FromFeatures derives generator parameters from a feature-space point:
// a square matrix sized so the CSR footprint matches fv.MemFootprintMB.
// The row-size standard deviation defaults to 30% of the average, matching
// the moderate spread used for the paper's dataset.
func FromFeatures(fv core.FeatureVector, seed int64) Params {
	rows := fv.Rows
	cols := fv.Cols
	if rows == 0 {
		rows = RowsForFootprint(fv.MemFootprintMB, fv.AvgNNZPerRow)
		cols = rows
	}
	return Params{
		Rows:         rows,
		Cols:         cols,
		AvgNNZPerRow: fv.AvgNNZPerRow,
		StdNNZPerRow: fv.AvgNNZPerRow * 0.3,
		Dist:         Normal,
		SkewCoeff:    fv.SkewCoeff,
		BWScaled:     fv.BWScaled,
		CrossRowSim:  fv.CrossRowSim,
		AvgNumNeigh:  fv.AvgNumNeigh,
		Seed:         seed,
	}
}

// Generate produces the artificial matrix for p using all available CPUs.
func Generate(p Params) (*matrix.CSR, error) {
	return GenerateParallel(p, runtime.GOMAXPROCS(0))
}

// GenerateParallel produces the artificial matrix using the given number of
// workers. The result is identical for every workers value.
func GenerateParallel(p Params, workers int) (*matrix.CSR, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}

	counts := rowCounts(p)
	rowPtr := make([]int32, p.Rows+1)
	var total int64
	for i, n := range counts {
		rowPtr[i] = int32(total)
		total += int64(n)
	}
	rowPtr[p.Rows] = int32(total)
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d nonzeros exceed int32 indexing", ErrParams, total)
	}

	m := &matrix.CSR{
		Rows:   p.Rows,
		Cols:   p.Cols,
		RowPtr: rowPtr,
		ColIdx: make([]int32, total),
		Val:    make([]float64, total),
	}

	// Each worker claims chunks in turn and owns one column bitmap.
	nChunks := (p.Rows + chunkRows - 1) / chunkRows
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, nChunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mark := make([]uint64, (p.Cols+63)/64)
			for c := int(next.Add(1) - 1); c < nChunks; c = int(next.Add(1) - 1) {
				fillChunk(m, counts, p, c, mark)
			}
		}()
	}
	wg.Wait()
	return m, nil
}

// rowCounts assigns the number of nonzeros to every row: base distribution,
// skew profile, then exact re-balancing of the total.
func rowCounts(p Params) []int {
	rng := rand.New(rand.NewSource(splitmix(p.Seed, 0x9e3779b97f4a7c15)))
	counts := make([]int, p.Rows)
	maxRow := p.Cols

	draw := func(mean float64) int {
		var v float64
		switch p.Dist {
		case Uniform:
			half := p.StdNNZPerRow * math.Sqrt(3)
			v = mean + (rng.Float64()*2-1)*half
		default:
			v = mean + rng.NormFloat64()*p.StdNNZPerRow
		}
		n := int(math.Round(v))
		if n < 1 {
			n = 1
		}
		if n > maxRow {
			n = maxRow
		}
		return n
	}

	if p.SkewCoeff <= 0 {
		for i := range counts {
			counts[i] = draw(p.AvgNNZPerRow)
		}
	} else {
		// MAX*exp(-C*i/rows) profile with mean equal to the requested average.
		max := p.AvgNNZPerRow * (1 + p.SkewCoeff)
		if max > float64(maxRow) {
			max = float64(maxRow) // infeasible skew clamps at a full row
		}
		c := solveDecayConstant(max / p.AvgNNZPerRow)
		for i := range counts {
			mean := max * math.Exp(-c*float64(i)/float64(p.Rows))
			counts[i] = draw(mean)
		}
		counts[0] = int(math.Round(max)) // pin the maximum so measured skew matches
	}

	rebalance(counts, int64(math.Round(p.AvgNNZPerRow*float64(p.Rows))), maxRow, rng)
	return counts
}

// solveDecayConstant returns C such that the discrete mean of exp(-C*t) on
// [0,1), i.e. (1-exp(-C))/C, equals 1/ratio. ratio = MAX/avg >= 1.
func solveDecayConstant(ratio float64) float64 {
	if ratio <= 1 {
		return 0
	}
	target := 1 / ratio
	lo, hi := 1e-9, 1.0
	for (1-math.Exp(-hi))/hi > target {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if (1-math.Exp(-mid))/mid > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// rebalance nudges individual rows by one element at a time until the total
// equals want, respecting the [1, maxRow] bounds and never touching row 0
// (which pins the skew maximum).
func rebalance(counts []int, want int64, maxRow int, rng *rand.Rand) {
	var total int64
	for _, n := range counts {
		total += int64(n)
	}
	if len(counts) <= 1 {
		return
	}
	for attempts := 0; total != want && attempts < 64*len(counts); attempts++ {
		i := 1 + rng.Intn(len(counts)-1)
		if total < want && counts[i] < maxRow {
			counts[i]++
			total++
		} else if total > want && counts[i] > 1 {
			counts[i]--
			total--
		}
	}
}

// fillChunk places the nonzeros for one chunk of rows. Each chunk has an
// independent PRNG stream and carries its own bandwidth-window random walk;
// cross-row duplication references the previous row inside the chunk only,
// so chunk boundaries are seams of slightly reduced similarity (negligible
// at the 4096-row chunk size). mark is the worker's all-zero column bitmap,
// left all-zero on return.
func fillChunk(m *matrix.CSR, counts []int, p Params, chunk int, mark []uint64) {
	rng := rand.New(rand.NewSource(splitmix(p.Seed, uint64(chunk)+1)))
	lo := chunk * chunkRows
	hi := lo + chunkRows
	if hi > p.Rows {
		hi = p.Rows
	}

	window := int(math.Round(p.BWScaled * float64(p.Cols)))
	if window < 1 {
		window = 1
	}
	// A slow random walk of the window anchor produces a banded structure
	// whose measured bandwidth tracks the request.
	step := p.Cols / 256
	if step < 1 {
		step = 1
	}
	start := 0
	if p.Cols > window {
		start = rng.Intn(p.Cols - window + 1)
	}

	pNeigh := p.AvgNumNeigh / 2
	var prev []int32

	for i := lo; i < hi; i++ {
		n := counts[i]
		w := window
		// Spread correction: k uniform draws in a window of width w span
		// w*(k-1)/(k+1) on average; widen so the measured bandwidth matches.
		if n >= 2 {
			w = int(float64(w) * float64(n+1) / float64(n-1))
		}
		if w < n {
			w = n
		}
		if w > p.Cols {
			w = p.Cols
		}
		if p.Cols > w {
			start += rng.Intn(2*step+1) - step
			if start < 0 {
				start = 0
			}
			if start > p.Cols-w {
				start = p.Cols - w
			}
		} else {
			start = 0
		}

		base := m.RowPtr[i]
		set := colSet{mark: mark, cols: m.ColIdx[base : base+int32(n)]}
		// Step 1: duplicate previous-row columns with probability sim.
		// Per-column duplication fragments the previous row's neighbor
		// runs, so each duplicate also rolls the clustering dice and
		// extends rightward — keeping the two locality features
		// independent targets even when both are high.
		for _, c := range prev {
			if set.n >= n {
				break
			}
			if rng.Float64() < p.CrossRowSim {
				set.add(c)
				for set.n < n && rng.Float64() < pNeigh {
					c++
					if int(c) >= p.Cols || !set.add(c) {
						break
					}
				}
			}
		}
		// Step 2: random placement in the window with neighbor clustering.
		misses := 0
		for set.n < n {
			c := int32(start + rng.Intn(w))
			if !set.add(c) {
				misses++
				if misses > 8*w+64 {
					// Nearly full window: top the row up deterministically.
					// The window holds w >= n columns, so this completes it.
					for c := int32(start); set.n < n; c++ {
						set.add(c)
					}
				}
				continue
			}
			for set.n < n && rng.Float64() < pNeigh {
				c++
				if int(c) >= start+w || !set.add(c) {
					break
				}
			}
		}

		// Commit the row sorted, with uniform values in [-0.5, 0.5).
		set.sort()
		vals := m.Val[base : base+int32(n)]
		for k := range vals {
			vals[k] = rng.Float64() - 0.5
		}
		prev = set.cols
	}
}

// colSet is one row's column set while it is drawn: the members in
// insertion order at the front of the row's own ColIdx segment, and a bit
// per column in mark.
type colSet struct {
	mark []uint64
	cols []int32
	n    int
}

// add inserts c and reports whether it was new.
func (s *colSet) add(c int32) bool {
	w, b := c>>6, uint64(1)<<(c&63)
	if s.mark[w]&b != 0 {
		return false
	}
	s.mark[w] |= b
	s.cols[s.n] = c
	s.n++
	return true
}

// sort orders the members and clears their marks. A row whose span covers
// fewer bitmap words than it has members is read back from the bitmap in
// order; a sparser one is sorted.
func (s *colSet) sort() {
	cols := s.cols[:s.n]
	if len(cols) == 0 {
		return
	}
	lo, hi := slices.Min(cols)>>6, slices.Max(cols)>>6
	if int(hi-lo) >= len(cols) {
		slices.Sort(cols)
		for _, c := range cols {
			s.mark[c>>6] = 0
		}
		return
	}
	k := 0
	for w := lo; w <= hi; w++ {
		for word := s.mark[w]; word != 0; word &= word - 1 {
			cols[k] = w<<6 | int32(bits.TrailingZeros64(word))
			k++
		}
		s.mark[w] = 0
	}
}

// splitmix is the SplitMix64 mixing function, used to derive independent
// PRNG streams for chunks from the user seed.
func splitmix(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
