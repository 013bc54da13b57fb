package simd

import (
	"math"
	"math/rand"
	"testing"
)

// csrMat is a bare CSR layout for driving CSRRowRange.
type csrMat struct {
	rowPtr, idx []int32
	val         []float64
}

// csrOfLens lays out rows of the given lengths with random values and
// random columns below bound.
func csrOfLens(rng *rand.Rand, lens []int, bound int) csrMat {
	m := csrMat{rowPtr: make([]int32, 1, len(lens)+1)}
	for _, n := range lens {
		m.rowPtr = append(m.rowPtr, m.rowPtr[len(m.rowPtr)-1]+int32(n))
	}
	nnz := int(m.rowPtr[len(lens)])
	m.idx, m.val = randIdx(rng, nnz, bound), randVec(rng, nnz)
	return m
}

// seqRow is the oracle: row i's sequential sum and its sum of magnitudes.
func (m csrMat) seqRow(i int, x []float64) (sum, mag float64) {
	for j := m.rowPtr[i]; j < m.rowPtr[i+1]; j++ {
		p := m.val[j] * x[m.idx[j]]
		sum += p
		mag += math.Abs(p)
	}
	return sum, mag
}

// dotBound is the forward bound a reassociated n-term dot product is held
// to (matrix.CSR.WithinDotBound's, per row).
func dotBound(n int, mag float64) float64 { return 2 * float64(n) * 0x1p-53 * mag }

// reachableTiers lists the caps SetLevel can actually install on this host.
func reachableTiers() []string {
	tiers := []string{"scalar"}
	for _, tier := range []string{"avx2", "avx512"} {
		if tierRank(tier) <= tierRank(DetectedLevel()) {
			tiers = append(tiers, tier)
		}
	}
	return tiers
}

// TestCSRRowRangeMatchesReference holds the row-range kernel of every
// tier to the sequential row sum: within the dot product's forward bound
// for every row length around the short step, the group and tail
// boundaries and a long row; bit-equal for rows of at most two entries;
// nothing written outside [lo, hi); and nothing read from x that no row
// references (dead lanes of the masked step must be exact zeros).
func TestCSRRowRangeMatchesReference(t *testing.T) {
	defer SetLevel(SetLevel("scalar"))
	rng := rand.New(rand.NewSource(11))
	lens := []int{0, 0} // empty rows leading, consecutive and trailing
	for n := 0; n <= 40; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 0, 0, 0, 63, 64, 65, 0, 127, 128, 129, 1000, 0, 0)
	rows := len(lens)
	const cols = 4096
	m := csrOfLens(rng, lens, cols)
	x := randVec(rng, cols)
	used := make([]bool, cols)
	for _, c := range m.idx {
		used[c] = true
	}
	for c := range x {
		if !used[c] {
			x[c] = math.NaN()
		}
	}
	for _, tier := range reachableTiers() {
		SetLevel(tier)
		for _, r := range [][2]int{{0, rows}, {3, rows - 1}, {7, 7}, {rows, rows}, {rows - 1, rows}, {44, 52}} {
			lo, hi := r[0], r[1]
			y := make([]float64, rows)
			for i := range y {
				y[i] = math.NaN()
			}
			CSRRowRange(m.rowPtr, m.idx, m.val, x, y, lo, hi)
			for i, got := range y {
				if i < lo || i >= hi {
					if !math.IsNaN(got) {
						t.Fatalf("%s [%d,%d): y[%d] = %v written outside the range", tier, lo, hi, i, got)
					}
					continue
				}
				want, mag := m.seqRow(i, x)
				if lens[i] <= 2 && got != want {
					t.Fatalf("%s [%d,%d): row %d (n=%d) = %v, not bit-equal to the sequential %v", tier, lo, hi, i, lens[i], got, want)
				}
				if !(math.Abs(got-want) <= dotBound(lens[i], mag)) {
					t.Fatalf("%s [%d,%d): row %d (n=%d) = %v, want %v within %g", tier, lo, hi, i, lens[i], got, want, dotBound(lens[i], mag))
				}
			}
		}
		// A matrix with no entries at all: every row in range is zero.
		y := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
		CSRRowRange(make([]int32, 5), nil, nil, x, y, 1, 3)
		if !math.IsNaN(y[0]) || y[1] != 0 || y[2] != 0 || !math.IsNaN(y[3]) {
			t.Fatalf("%s: empty matrix rows [1,3) gave %v", tier, y)
		}
	}
}
