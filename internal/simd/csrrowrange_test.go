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

// narrowIdx is idx as uint16 indices with their zeroed U16Slack tail.
func narrowIdx(idx []int32) []uint16 {
	c := make([]uint16, len(idx)+U16Slack)
	for j, v := range idx {
		c[j] = uint16(v)
	}
	return c
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

// csrKs are the vector counts the CSR kernel tests sweep: k = 1 (the
// gather kernel), every lane-mask tail of both tile widths, whole 4- and
// 8-vector passes, a ZMM pass plus a full YMM one, and a pass plus one.
var csrKs = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 17}

// TestCSRRowRangeMatchesReference holds the CSR kernel of every tier to
// CSRRowRangeGo bit for bit, at every k in csrKs, for every row length
// around the masked steps, the group boundaries and a long row; and the Go
// reference itself to the sequential row sum within the dot product's
// forward bound (bit-equal for rows of at most two entries). Nothing is
// written outside rows [lo, hi), nothing read from x that no row
// references (a dead lane's load must be masked), and the uint16-index
// entry is bit-identical to the int32 one.
func TestCSRRowRangeMatchesReference(t *testing.T) {
	defer SetLevel(SetLevel("scalar"))
	rng := rand.New(rand.NewSource(11))
	lens := []int{0, 0} // empty rows leading, consecutive and trailing
	for n := 0; n <= 40; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 0, 0, 0, 63, 64, 65, 0, 127, 128, 129, 1000, 0, 0)
	rows := len(lens)
	const cols = 1 << 16 // every uint16 index value
	m := csrOfLens(rng, lens, cols)
	idx16 := narrowIdx(m.idx)
	used := make([]bool, cols)
	for _, c := range m.idx {
		used[c] = true
	}
	for _, k := range csrKs {
		x := randVec(rng, cols*k)
		for c := range used {
			for t := 0; t < k && !used[c]; t++ {
				x[c*k+t] = math.NaN()
			}
		}
		want := nanVec(rows * k)
		CSRRowRangeGo(m.rowPtr, m.idx, m.val, x, want, 0, rows, k)
		if k == 1 {
			for i, got := range want {
				seq, mag := m.seqRow(i, x)
				if lens[i] <= 2 && got != seq || !(math.Abs(got-seq) <= dotBound(lens[i], mag)) {
					t.Fatalf("row %d (n=%d): the Go reference gave %v, the sequential sum %v", i, lens[i], got, seq)
				}
			}
		}
		for _, tier := range reachableTiers() {
			SetLevel(tier)
			for _, r := range [][2]int{{0, rows}, {3, rows - 1}, {7, 7}, {rows, rows}, {rows - 1, rows}, {44, 52}} {
				lo, hi := r[0], r[1]
				y, y16 := nanVec(rows*k), nanVec(rows*k)
				CSRRowRange(m.rowPtr, m.idx, m.val, x, y, lo, hi, k)
				CSRRowRange(m.rowPtr, idx16, m.val, x, y16, lo, hi, k)
				for e, got := range y {
					if i := e / k; i < lo || i >= hi {
						if !math.IsNaN(got) || !math.IsNaN(y16[e]) {
							t.Fatalf("%s k=%d [%d,%d): y[%d] = %v, %v written outside the range", tier, k, lo, hi, e, got, y16[e])
						}
					} else if math.Float64bits(got) != math.Float64bits(want[e]) || math.Float64bits(y16[e]) != math.Float64bits(want[e]) {
						t.Fatalf("%s k=%d [%d,%d): row %d (n=%d) vector %d = %v (uint16 %v), the Go reference %v",
							tier, k, lo, hi, i, lens[i], e%k, got, y16[e], want[e])
					}
				}
			}
			// A matrix with no entries at all: every row in range is +0.
			y := nanVec(4 * k)
			CSRRowRange(make([]int32, 5), []int32(nil), nil, x, y, 1, 3, k)
			for e, v := range y {
				if in := e >= k && e < 3*k; in && math.Float64bits(v) != 0 || !in && !math.IsNaN(v) {
					t.Fatalf("%s k=%d: empty matrix rows [1,3) gave %v", tier, k, y)
				}
			}
		}
	}
}

// TestCSRRowRangeSignedZeros pins the +0 start of the canonical order on
// rows whose products are -0 or underflow to it: a row of only such
// products sums to +0 below eight entries (a +0 partial sum is in the
// tree) and to -0 at eight and more when every product is -0 (every
// partial sum holds -0), on every tier and both tile widths. A dead lane
// of a masked step must leave a -0 partial sum alone.
func TestCSRRowRangeSignedZeros(t *testing.T) {
	defer SetLevel(SetLevel("scalar"))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 21} {
		m := csrMat{rowPtr: []int32{0, int32(n)}, idx: make([]int32, n), val: make([]float64, n)}
		for j := range m.val {
			m.val[j] = -0x1p-600 // times 0x1p-600: a product that underflows to -0
		}
		for _, k := range csrKs {
			x := make([]float64, k)
			for u := range x {
				x[u] = 0x1p-600
			}
			want := make([]float64, k)
			CSRRowRangeGo(m.rowPtr, m.idx, m.val, x, want, 0, 1, k)
			if sign := math.Signbit(want[0]); want[0] != 0 || sign != (n >= 8) {
				t.Fatalf("n=%d k=%d: the Go reference gave %v, want %s0", n, k, want[0], map[bool]string{true: "-", false: "+"}[n >= 8])
			}
			for _, tier := range reachableTiers() {
				SetLevel(tier)
				y := nanVec(k)
				CSRRowRange(m.rowPtr, m.idx, m.val, x, y, 0, 1, k)
				for u := range y {
					if math.Float64bits(y[u]) != math.Float64bits(want[u]) {
						t.Fatalf("%s n=%d k=%d: vector %d = %v, the Go reference %v", tier, n, k, u, y[u], want[u])
					}
				}
			}
		}
	}
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}
