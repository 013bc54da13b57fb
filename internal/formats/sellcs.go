package formats

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// SELLCS is the SELL-C-sigma format (Kreutzer et al., SISC 2014): rows are
// sorted by length inside windows of sigma rows, grouped into chunks of C
// rows, and each chunk is padded to its own maximum length and stored
// column-major. Sorting keeps chunk-local padding small; the permutation is
// undone when writing y.
type SELLCS struct {
	driver
	rows, cols int
	c, sigma   int
	nnz        int64
	perm       []int32 // perm[slot] = original row stored at this slot
	chunkPtr   []int64 // offset of each chunk's slab in colIdx/val
	chunkLen   []int32 // padded row length of each chunk
	colIdx     []int32
	val        []float64
	tune       Tuning
}

// Default SELL-C-sigma tuning, matching common CPU configurations.
const (
	DefaultChunk = 8
	DefaultSigma = 256
)

// DefaultChunkC returns the chunk size matched to the active SIMD
// dispatch: the detected hardware vector width when accelerated kernels
// are live (chunk lanes then map 1:1 onto SIMD lanes and the slab loads
// are exactly one vector wide), DefaultChunk otherwise. SELL-C-sigma was
// designed around C = vector width (Kreutzer et al.); the Registry builds
// "SELL-C-s" through this.
func DefaultChunkC() int {
	if w := simd.Width(); w >= 4 {
		return w
	}
	return DefaultChunk
}

// NewSELLCS builds SELL-C-sigma with chunk size c and sorting scope sigma.
func NewSELLCS(m *matrix.CSR, c, sigma int) (*SELLCS, error) {
	return newSELLCS(m, c, sigma, Tuning{})
}

func newSELLCS(m *matrix.CSR, c, sigma int, t Tuning) (*SELLCS, error) {
	if c < 1 || sigma < 1 {
		return nil, fmt.Errorf("%w SELL-C-s: chunk %d sigma %d", ErrBuild, c, sigma)
	}
	if sigma%c != 0 && sigma != 1 {
		// Round sigma up to a multiple of c so chunks never straddle
		// sorting windows.
		sigma = ((sigma + c - 1) / c) * c
	}
	f := &SELLCS{rows: m.Rows, cols: m.Cols, c: c, sigma: sigma, nnz: int64(m.NNZ()), tune: t}

	// Permutation: sort rows by descending length within sigma windows.
	f.perm = make([]int32, m.Rows)
	for i := range f.perm {
		f.perm[i] = int32(i)
	}
	for lo := 0; lo < m.Rows; lo += sigma {
		hi := lo + sigma
		if hi > m.Rows {
			hi = m.Rows
		}
		window := f.perm[lo:hi]
		sort.SliceStable(window, func(a, b int) bool {
			return m.RowNNZ(int(window[a])) > m.RowNNZ(int(window[b]))
		})
	}

	nChunks := (m.Rows + c - 1) / c
	f.chunkPtr = make([]int64, nChunks+1)
	f.chunkLen = make([]int32, nChunks)
	var total int64
	for ch := 0; ch < nChunks; ch++ {
		maxLen := 0
		for s := ch * c; s < (ch+1)*c && s < m.Rows; s++ {
			if n := m.RowNNZ(int(f.perm[s])); n > maxLen {
				maxLen = n
			}
		}
		f.chunkPtr[ch] = total
		f.chunkLen[ch] = int32(maxLen)
		total += int64(maxLen) * int64(c)
	}
	f.chunkPtr[nChunks] = total
	if total > MaxELLPaddedEntries {
		return nil, fmt.Errorf("%w SELL-C-s: %d padded entries (max %d)", ErrBuild, total, int64(MaxELLPaddedEntries))
	}

	f.colIdx = make([]int32, total)
	f.val = make([]float64, total)
	for ch := 0; ch < nChunks; ch++ {
		base := f.chunkPtr[ch]
		for lane := 0; lane < c; lane++ {
			s := ch*c + lane
			if s >= m.Rows {
				continue
			}
			cols, vals := m.Row(int(f.perm[s]))
			for k, col := range cols {
				at := base + int64(k*c+lane)
				f.colIdx[at] = col
				f.val[at] = vals[k]
			}
		}
	}
	f.bind(f)
	return f, nil
}

// Name implements Format.
func (f *SELLCS) Name() string { return "SELL-C-s" }

// Rows implements Format.
func (f *SELLCS) Rows() int { return f.rows }

// Cols implements Format.
func (f *SELLCS) Cols() int { return f.cols }

// NNZ implements Format.
func (f *SELLCS) NNZ() int64 { return f.nnz }

// Bytes implements Format: padded slabs plus the permutation and chunk
// descriptors.
func (f *SELLCS) Bytes() int64 {
	return int64(len(f.val))*12 + int64(len(f.perm))*4 + int64(len(f.chunkPtr))*8 + int64(len(f.chunkLen))*4
}

// PaddedEntries returns the slab slot count including padding.
func (f *SELLCS) PaddedEntries() int64 { return int64(len(f.val)) }

// Traits implements Format.
func (f *SELLCS) Traits() Traits {
	pad := 0.0
	meta := 4.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.val))-f.nnz) / float64(f.nnz)
		meta = float64(f.Bytes()-8*f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: RowGranular, PaddingRatio: pad,
		MetaBytesPerNNZ: meta, Class: ClassLanes, Preprocessed: true}
}

// maxStackLanes bounds the chunk widths served by the stack-resident lane
// accumulators; wider chunks fall back to a heap buffer.
const maxStackLanes = 64

func (f *SELLCS) chunkRange(x, y []float64, chLo, chHi int) {
	c := f.c
	var sumsBuf [maxStackLanes]float64
	var sums []float64
	if c <= maxStackLanes {
		sums = sumsBuf[:c]
	} else {
		sums = make([]float64, c)
	}
	val, colIdx := f.val, f.colIdx
	useSIMD := simd.Enabled() && c%4 == 0
	wide8 := useSIMD && simd.Width() >= 8
	for ch := chLo; ch < chHi; ch++ {
		base := f.chunkPtr[ch]
		width := int(f.chunkLen[ch])
		for lane := range sums {
			sums[lane] = 0
		}
		slab := int64(width) * int64(c)
		cs := colIdx[base : base+slab : base+slab]
		vs := val[base : base+slab : base+slab]
		vs = vs[:len(cs)]
		if useSIMD && width >= simdMinN {
			// Dispatched path: each lane group sweeps the chunk slab with
			// stride c. Per lane a sequential sum in ascending column order
			// — bit-identical to the scalar lane loop. 8-lane groups go
			// through the wide kernel when the dispatched width allows
			// (its AVX2 fallback composes two 4-lane sweeps, still
			// bit-identical), the remainder through the 4-lane kernel.
			lg := 0
			if wide8 {
				for ; lg+8 <= c; lg += 8 {
					r := simd.LaneDot8(vs[lg:], cs[lg:], x, c, width)
					copy(sums[lg:lg+8], r[:])
				}
			}
			for ; lg+4 <= c; lg += 4 {
				r := simd.LaneDot4(vs[lg:], cs[lg:], x, c, width)
				sums[lg], sums[lg+1], sums[lg+2], sums[lg+3] = r[0], r[1], r[2], r[3]
			}
		} else {
			for k := 0; k < len(cs); k += c {
				for lane := 0; lane < c; lane++ {
					sums[lane] += vs[k+lane] * x[cs[k+lane]]
				}
			}
		}
		for lane := 0; lane < c; lane++ {
			s := ch*c + lane
			if s < f.rows {
				y[f.perm[s]] = sums[lane]
			}
		}
	}
}

// units: lanes take whole chunks. Chunks are contiguous slabs of
// sigma-sorted rows, so the domain split hands each shard adjacent slabs.
func (f *SELLCS) units() int { return len(f.chunkLen) }

// cum: the chunk pointer is the cumulative padded-slot measure.
func (f *SELLCS) cum(i int) int64 { return f.chunkPtr[i] }

func (f *SELLCS) plan(key exec.PlanKey, _ int) *exec.Plan { return evenPlan(len(f.chunkLen), key) }

// apply is the lane-sum chunk sweep at k = 1 and the fused SELL-C-sigma
// kernel at k > 1: within a chunk the lanes run lane-major, each one
// bcastRow over its stride-C slab walk. A lane's partial sums live in
// registers while it strides through the chunk slab, and the slab — C lanes
// x the chunk's padded width — is small enough to stay in L1 across the
// lanes and tiles that revisit it, so the strided walk costs cache hits,
// not memory traffic.
func (f *SELLCS) apply(y, x []float64, k, lo, hi int) {
	if k == 1 {
		f.chunkRange(x, y, lo, hi)
		return
	}
	c := f.c
	l := f.tune.ladder(f.val, f.colIdx, x, y, c, k)
	for ch := lo; ch < hi; ch++ {
		for lane := 0; lane < c && ch*c+lane < f.rows; lane++ { // the last chunk may be partial
			l.bcastRow(int(f.perm[ch*c+lane])*k, int(f.chunkPtr[ch])+lane, int(f.chunkLen[ch]))
		}
	}
}
