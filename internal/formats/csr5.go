package formats

import (
	"fmt"

	"repro/internal/matrix"
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
	f.heads = make([]int32, f.units())
	for u := range f.heads {
		f.heads[u] = -1
		if e := int64(u) * carryUnit; e > 0 {
			if s := f.segOfEntry(e); f.segStart[s] < e {
				f.heads[u] = f.segRow[s]
			}
		}
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

// unitTiles is how many tiles one unit holds: carryUnit entries.
const unitTiles = carryUnit / tileN

// processTiles runs the segmented sum over the tiles of unit u. A flush to
// the unit's head row (the row its first entry belongs to, when that row
// began in an earlier unit) accumulates into the returned sum instead of
// y. A flush to a segment before the unit's first entry is dropped: the
// only one is the zero-sum flush a lane emits when it begins exactly at a
// row start, and dropping it keeps the unit off rows an earlier unit owns.
//
// Each lane extracts its Sigma flag bits from the tile's flag word once;
// lanes with no row start (the common case away from row boundaries) take a
// branch-free accumulate path over the bounds-check-free tile slab.
func (f *CSR5) processTiles(x, y []float64, u int) (head float64) {
	tLo, tHi := u*unitTiles, min((u+1)*unitTiles, f.tiles)
	if tLo >= tHi {
		return 0
	}
	minSeg, headSeg := int32(f.segOfEntry(int64(tLo)*tileN)), int32(-1)
	if f.heads[u] >= 0 {
		headSeg = minSeg
	}
	segRow := f.segRow
	flush := func(seg int32, sum float64) {
		switch {
		case seg < minSeg:
		case seg == headSeg:
			head += sum
		default:
			y[segRow[seg]] += sum
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
	return head
}

// units are groups of unitTiles tiles — perfectly nonzero-balanced. A
// matrix without entries keeps one, to zero y.
func (f *CSR5) units() int { return max((f.tiles+unitTiles-1)/unitTiles, 1) }

// cum counts entries.
func (f *CSR5) cum(i int) int64 { return min(int64(i)*carryUnit, f.nnz) }

// apply zeroes the rows units [lo, hi) start, the empty ones between
// included, then runs the segmented sum unit by unit. Single-vector only:
// the segmented-sum descriptors would need k-wide lane carries and flush
// slots, heavy machinery for a format the multi-vector workloads do not
// favor, so CSR5 multiplies blocks one column at a time.
func (f *CSR5) apply(y, x, c []float64, _, lo, hi int) {
	zero(y[f.firstRow(lo):f.firstRow(hi)])
	for u := lo; u < hi; u++ {
		c[u] = f.processTiles(x, y, u)
	}
}

// firstRow is the first row unit u writes into y: the row after the one
// holding the entry before the unit (f.rows past the last unit).
func (f *CSR5) firstRow(u int) int {
	switch e := int64(u) * carryUnit; {
	case u == 0:
		return 0
	case e >= f.nnz:
		return f.rows
	default:
		return int(f.segRow[f.segOfEntry(e-1)]) + 1
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
