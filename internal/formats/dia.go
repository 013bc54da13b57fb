package formats

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// DIA stores the matrix by diagonals (offset = col - row), the classic
// format for banded PDE matrices mentioned in the paper's related work. It
// is an extension beyond the paper's evaluated set: excellent for stencils,
// unusable for scattered sparsity, which the build gate enforces.
type DIA struct {
	driver
	rows, cols int
	nnz        int64
	offsets    []int32   // diagonal offsets, ascending
	val        []float64 // len(offsets) x rows, diagonal-major
}

// MaxDIAFillRatio bounds accepted padding: construction fails when the
// dense diagonal slabs would exceed this multiple of the nonzero count.
const MaxDIAFillRatio = 16.0

// NewDIA builds the diagonal format, failing for matrices whose nonzeros
// spread over too many diagonals.
func NewDIA(m *matrix.CSR) (*DIA, error) {
	seen := make(map[int32]bool)
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			seen[c-int32(i)] = true
		}
	}
	if m.NNZ() > 0 {
		slab := int64(len(seen)) * int64(m.Rows)
		if ratio := float64(slab) / float64(m.NNZ()); ratio > MaxDIAFillRatio {
			return nil, fmt.Errorf("%w DIA: %d diagonals over %d rows is %.1fx the nonzero count (max %.0fx)",
				ErrBuild, len(seen), m.Rows, ratio, MaxDIAFillRatio)
		}
	}
	f := &DIA{rows: m.Rows, cols: m.Cols, nnz: int64(m.NNZ())}
	f.offsets = make([]int32, 0, len(seen))
	for off := range seen {
		f.offsets = append(f.offsets, off)
	}
	sort.Slice(f.offsets, func(a, b int) bool { return f.offsets[a] < f.offsets[b] })
	index := make(map[int32]int, len(f.offsets))
	for d, off := range f.offsets {
		index[off] = d
	}
	f.val = make([]float64, len(f.offsets)*m.Rows)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			d := index[c-int32(i)]
			f.val[d*m.Rows+i] = vals[k]
		}
	}
	f.bind(f)
	return f, nil
}

// Name implements Format.
func (f *DIA) Name() string { return "DIA" }

// Rows implements Format.
func (f *DIA) Rows() int { return f.rows }

// Cols implements Format.
func (f *DIA) Cols() int { return f.cols }

// NNZ implements Format.
func (f *DIA) NNZ() int64 { return f.nnz }

// Bytes implements Format: dense diagonal slabs plus the offset list.
func (f *DIA) Bytes() int64 { return int64(len(f.val))*8 + int64(len(f.offsets))*4 }

// Diagonals returns the number of stored diagonals.
func (f *DIA) Diagonals() int { return len(f.offsets) }

// Traits implements Format.
func (f *DIA) Traits() Traits {
	pad := 0.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.val))-f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: RowGranular, PaddingRatio: pad,
		MetaBytesPerNNZ: 8 * pad, Class: ClassSweep}
}

// rowRange sweeps diagonal by diagonal with the in-band row span hoisted
// out of the inner loop, so the kernel is three aligned sequential streams
// with no per-element branch. Rows accumulate their diagonals in ascending
// offset order, exactly like the row-major walk, so results are
// bit-identical.
func (f *DIA) rowRange(x, y []float64, lo, hi int) {
	rows, cols := f.rows, f.cols
	for j := lo; j < hi; j++ {
		y[j] = 0
	}
	for d, off := range f.offsets {
		o := int(off)
		iLo, iHi := lo, hi
		if o < 0 && iLo < -o {
			iLo = -o
		}
		if iHi > cols-o {
			iHi = cols - o
		}
		if iLo >= iHi {
			continue
		}
		base := d * rows
		v := f.val[base+iLo : base+iHi : base+iHi]
		xs := x[iLo+o : iHi+o : iHi+o]
		ys := y[iLo:iHi:iHi]
		xs = xs[:len(v)]
		ys = ys[:len(v)]
		for j, vj := range v {
			ys[j] += vj * xs[j]
		}
	}
}

func (f *DIA) units() int { return f.rows }

// cum: rows carry identical diagonal work, so equal row blocks are
// balanced.
func (f *DIA) cum(i int) int64 { return int64(i) * int64(len(f.offsets)) }

func (f *DIA) plan(key exec.PlanKey, _ int) *exec.Plan { return evenPlan(f.rows, key) }

func (f *DIA) apply(y, x []float64, k, lo, hi int) {
	if k == 1 {
		f.rowRange(x, y, lo, hi)
		return
	}
	f.rowRangeMulti(x, y, k, lo, hi)
}

// rowRangeMulti is the fused DIA kernel. Unlike the single-vector kernel
// it walks row-major: per row and 4-vector tile the partial sums live in
// registers (the diagonal sweep would pay a y load+store per slot per
// vector, which measured slower than the baseline it must beat). The
// per-element band check the single-vector kernel hoists comes back, but
// it is amortized over the tile's four FMAs and predicts perfectly away
// from the band edges; the stride-rows slab loads stay cheap because one
// cache line covers eight consecutive rows' entries of a diagonal. Per row
// the diagonals accumulate in ascending offset order, so each vector's
// result is bit-identical to the single-vector kernel's.
func (f *DIA) rowRangeMulti(x, y []float64, k, lo, hi int) {
	rows, cols := f.rows, f.cols
	offsets, val := f.offsets, f.val
	for i := lo; i < hi; i++ {
		yi := y[i*k : i*k+k : i*k+k]
		t := 0
		for ; t+multiTile <= k; t += multiTile {
			var s0, s1, s2, s3 float64
			for d, off := range offsets {
				c := i + int(off)
				if c < 0 || c >= cols {
					continue
				}
				vj := val[d*rows+i]
				xb := c*k + t
				s0 += vj * x[xb]
				s1 += vj * x[xb+1]
				s2 += vj * x[xb+2]
				s3 += vj * x[xb+3]
			}
			yi[t], yi[t+1], yi[t+2], yi[t+3] = s0, s1, s2, s3
		}
		for ; t < k; t++ {
			var s float64
			for d, off := range offsets {
				c := i + int(off)
				if c < 0 || c >= cols {
					continue
				}
				s += val[d*rows+i] * x[c*k+t]
			}
			yi[t] = s
		}
	}
}
