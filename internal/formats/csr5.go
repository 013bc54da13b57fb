package formats

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// CSR5 implements the tile-based format of Liu & Vinter (ICS 2015). The
// nonzero stream is cut into 2D tiles of Omega lanes x Sigma entries; tile
// data is stored transposed (lane-interleaved) so a SIMD unit can process
// Omega lanes in lockstep, and per-tile descriptors (row-start bit flags and
// per-lane segment bases) drive a segmented sum that reassembles row results
// regardless of where rows start and end. Work is perfectly nonzero-balanced,
// at the cost of extra descriptor metadata — exactly the trade-off the paper
// describes for CSR5.
type CSR5 struct {
	driver
	rows, cols int
	nnz        int64

	// Segment s is the s-th non-empty row; segRow maps it back to the row
	// index, segStart[s] is the offset of its first nonzero.
	segRow   []int32
	segStart []int64

	tiles       int
	flags       []uint64 // Omega*Sigma bits per tile, bit k = entry k starts a row
	laneSegBase []int32  // per tile per lane: segment index before the lane's first entry
	colIdx      []int32  // transposed within each tile
	val         []float64
}

// CSR5 tile geometry. Omega mirrors a 256-bit SIMD unit (4 doubles); Sigma
// is the per-lane depth.
const (
	Omega = 4
	Sigma = 16
	tileN = Omega * Sigma
)

// flagWordsPerTile is the number of uint64 bit-flag words each tile needs.
const flagWordsPerTile = (tileN + 63) / 64

// NewCSR5 builds the CSR5 format.
func NewCSR5(m *matrix.CSR) (*CSR5, error) {
	nnz := int64(m.NNZ())
	f := &CSR5{rows: m.Rows, cols: m.Cols, nnz: nnz}

	// Enumerate non-empty rows as segments.
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) > 0 {
			f.segRow = append(f.segRow, int32(i))
			f.segStart = append(f.segStart, int64(m.RowPtr[i]))
		}
	}
	if nnz == 0 {
		f.bind(f)
		return f, nil
	}

	f.tiles = int((nnz + tileN - 1) / tileN)
	f.flags = make([]uint64, f.tiles*flagWordsPerTile)
	f.laneSegBase = make([]int32, f.tiles*Omega)
	padded := int64(f.tiles) * tileN
	f.colIdx = make([]int32, padded)
	f.val = make([]float64, padded)

	// Row-start bit flags, indexed by position within the tile.
	for s := range f.segStart {
		g := f.segStart[s]
		t := g / tileN
		k := g % tileN
		f.flags[int(t)*flagWordsPerTile+int(k)/64] |= 1 << (uint(k) % 64)
	}

	// Per-lane segment bases via a two-pointer sweep over segment starts.
	seg := 0
	for t := 0; t < f.tiles; t++ {
		for c := 0; c < Omega; c++ {
			g := int64(t)*tileN + int64(c)*Sigma
			if g >= nnz {
				// Padding lanes point at the last segment with no flag.
				f.laneSegBase[t*Omega+c] = int32(len(f.segRow) - 1)
				continue
			}
			for seg+1 < len(f.segStart) && f.segStart[seg+1] <= g {
				seg++
			}
			base := seg
			if f.segStart[seg] == g {
				base-- // the lane's first entry starts this segment; the
				// running sum before it belongs to the previous one
			}
			f.laneSegBase[t*Omega+c] = int32(base)
		}
	}

	// Transposed tile storage: original in-tile position k = c*Sigma + r
	// lands at transposed slot r*Omega + c.
	for g := int64(0); g < nnz; g++ {
		t := g / tileN
		k := g % tileN
		c := k / Sigma
		r := k % Sigma
		at := t*tileN + r*Omega + c
		f.colIdx[at] = m.ColIdx[g]
		f.val[at] = m.Val[g]
	}
	f.bind(f)
	return f, nil
}

// Name implements Format.
func (f *CSR5) Name() string { return "CSR5" }

// Rows implements Format.
func (f *CSR5) Rows() int { return f.rows }

// Cols implements Format.
func (f *CSR5) Cols() int { return f.cols }

// NNZ implements Format.
func (f *CSR5) NNZ() int64 { return f.nnz }

// Bytes implements Format: padded tile slabs plus descriptors and the
// segment tables.
func (f *CSR5) Bytes() int64 {
	return int64(len(f.val))*12 +
		int64(len(f.flags))*8 + int64(len(f.laneSegBase))*4 +
		int64(len(f.segRow))*4 + int64(len(f.segStart))*8
}

// Traits implements Format.
func (f *CSR5) Traits() Traits {
	pad := 0.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.val))-f.nnz) / float64(f.nnz)
	}
	meta := 4.0
	if f.nnz > 0 {
		meta = float64(f.Bytes()-8*f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: ItemGranular, PaddingRatio: pad, MetaBytesPerNNZ: meta,
		Class: ClassTile, Preprocessed: true}
}

// The kernel below exploits the tile-geometry fact that a tile's row-start
// flags fit exactly one uint64 word; this declaration fails to compile if
// Omega*Sigma stops being 64.
var _ [1]struct{} = [flagWordsPerTile]struct{}{}

// processTiles runs the segmented sum over tiles [tLo, tHi). Contributions
// to carryRow accumulate into the returned carry instead of y, so parallel
// callers can fix up rows straddling worker boundaries serially. Flushes to
// segments below minSeg are dropped: the only such flush is the zero-sum
// flush a lane emits when it begins exactly at a row start, and dropping it
// keeps workers from touching rows owned by their predecessor.
//
// Each lane extracts its Sigma flag bits from the tile's flag word once;
// lanes with no row start (the common case away from row boundaries) take a
// branch-free accumulate path over the bounds-check-free tile slab.
func (f *CSR5) processTiles(x, y []float64, tLo, tHi int, carryRow int32, minSeg int32) float64 {
	carry := 0.0
	segRow := f.segRow
	flush := func(seg int32, sum float64) {
		if seg < minSeg {
			return
		}
		row := segRow[seg]
		if row == carryRow {
			carry += sum
		} else {
			y[row] += sum
		}
	}
	for t := tLo; t < tHi; t++ {
		base := t * tileN
		fw := f.flags[t]
		cs := f.colIdx[base : base+tileN : base+tileN]
		vs := f.val[base : base+tileN : base+tileN]
		vs = vs[:len(cs)]
		for c := 0; c < Omega; c++ {
			seg := f.laneSegBase[t*Omega+c]
			bits := uint16(fw >> (uint(c) * Sigma))
			sum := 0.0
			if bits == 0 {
				for r := 0; r < Sigma; r++ {
					at := r*Omega + c
					sum += vs[at] * x[cs[at]]
				}
			} else {
				for r := 0; r < Sigma; r++ {
					if bits&(1<<uint(r)) != 0 {
						flush(seg, sum)
						seg++
						sum = 0
					}
					at := r*Omega + c
					sum += vs[at] * x[cs[at]]
				}
			}
			flush(seg, sum)
		}
	}
	return carry
}

// units: lanes take contiguous tile ranges — perfectly nonzero-balanced.
func (f *CSR5) units() int { return f.tiles }

// cum: every tile holds tileN entries, the last one possibly fewer.
func (f *CSR5) cum(i int) int64 {
	if c := int64(i) * tileN; c < f.nnz {
		return c
	}
	return f.nnz
}

// apply is the serial segmented sum over all tiles (carriers are never
// sub-ranged). Single-vector only: the segmented-sum descriptors would
// need k-wide lane carries and flush slots, heavy machinery for a format
// the multi-vector workloads do not favor, so CSR5 multiplies blocks one
// column at a time.
func (f *CSR5) apply(y, x []float64, _, lo, hi int) {
	zero(y)
	f.processTiles(x, y, lo, hi, -1, 0)
}

// csr5Scratch is the plan-cached executor state: the boundary segment
// each lane must not touch directly (read-only after the plan is built)
// and the carry accumulator slots.
type csr5Scratch struct {
	carryRow []int32
	minSeg   []int32
	carry    []float64
}

// carries implements carrier.
func (f *CSR5) carries(int) bool { return true }

// plan splits tiles evenly, with the first row of each range carried past
// the boundary. The even split is already domain-contiguous: consecutive
// lane ids — grouped by shard under a ganged dispatch — own adjacent tile
// slabs, so no domain-aware re-split is needed. The boundary-segment
// searches run once per placement.
func (f *CSR5) plan(key exec.PlanKey, _ int) *exec.Plan {
	p := key.Workers
	if p > f.tiles {
		p = f.tiles
	}
	ranges := make([]sched.Range, p)
	sc := &csr5Scratch{carryRow: make([]int32, p), minSeg: make([]int32, p), carry: make([]float64, p)}
	for w := range ranges {
		ranges[w] = sched.Range{RowLo: f.tiles * w / p, RowHi: f.tiles * (w + 1) / p}
		sc.carryRow[w] = -1
		if w > 0 && ranges[w].RowLo < f.tiles {
			// The row containing the first entry of this range may have
			// started in the previous range.
			sc.minSeg[w] = int32(f.segOfEntry(int64(ranges[w].RowLo) * tileN))
			sc.carryRow[w] = f.segRow[sc.minSeg[w]]
		}
	}
	return &exec.Plan{Ranges: ranges, Scratch: sc}
}

// begin implements carrier: only the carry accumulators need exclusivity.
func (f *CSR5) begin(pl *exec.Plan, y []float64, _ int, private bool) any {
	zero(y)
	sc := pl.Scratch.(*csr5Scratch)
	if private {
		return &csr5Scratch{carryRow: sc.carryRow, minSeg: sc.minSeg, carry: make([]float64, len(sc.carry))}
	}
	return sc
}

// lane implements carrier.
func (f *CSR5) lane(c any, pl *exec.Plan, w int, y, x []float64, _ int) {
	sc := c.(*csr5Scratch)
	sc.carry[w] = f.processTiles(x, y, pl.Ranges[w].RowLo, pl.Ranges[w].RowHi, sc.carryRow[w], sc.minSeg[w])
}

// finish implements carrier.
func (f *CSR5) finish(c any, y []float64, _ int) {
	sc := c.(*csr5Scratch)
	for w, row := range sc.carryRow {
		if row >= 0 {
			y[row] += sc.carry[w]
		}
	}
}

// segOfEntry returns the segment containing nonzero g (by binary search).
func (f *CSR5) segOfEntry(g int64) int {
	lo, hi := 0, len(f.segStart)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.segStart[mid] <= g {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// String describes the tile geometry.
func (f *CSR5) String() string {
	return fmt.Sprintf("CSR5{%d tiles of %dx%d}", f.tiles, Omega, Sigma)
}
