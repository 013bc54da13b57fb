package formats

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simd"
)

// BCSR is blocked CSR with fixed br x bc dense blocks (an extension from
// the paper's related work: register-blocking formats like those in
// SPARSITY/OSKI). Nonzeros are gathered into aligned dense blocks; blocks
// store no per-element indices, trading zero fill for metadata compression
// and unrollable inner loops.
type BCSR struct {
	driver
	rows, cols int
	br, bc     int
	nnz        int64
	blockRows  int
	rowPtr     []int32   // per block row, into blkCol
	blkCol     []int32   // block-column index per block
	val        []float64 // br*bc per block
	tune       Tuning
}

// MaxBCSRFillRatio bounds the zero fill: construction fails when the blocked
// image exceeds this multiple of the nonzero count.
const MaxBCSRFillRatio = 8.0

// NewBCSR builds blocked CSR with br x bc blocks aligned to the block grid.
func NewBCSR(m *matrix.CSR, br, bc int) (*BCSR, error) {
	return newBCSR(m, Tuning{BlockR: br, BlockC: bc})
}

// newBCSR builds blocked CSR with the tuning's block geometry (2x2 when
// unset).
func newBCSR(m *matrix.CSR, t Tuning) (*BCSR, error) {
	br, bc := t.BlockR, t.BlockC
	if br == 0 && bc == 0 {
		br, bc = 2, 2
	}
	if br < 1 || bc < 1 {
		return nil, fmt.Errorf("%w BCSR: block %dx%d", ErrBuild, br, bc)
	}
	blockRows := (m.Rows + br - 1) / br
	f := &BCSR{
		rows: m.Rows, cols: m.Cols, br: br, bc: bc, nnz: int64(m.NNZ()), blockRows: blockRows,
		tune: t,
	}
	f.rowPtr = make([]int32, blockRows+1)

	// Two passes: count distinct block columns per block row, then fill.
	blockOf := make(map[int32]int) // block column -> block index in current block row
	var totalBlocks int64
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if m.NNZ() > 0 {
				fill := float64(totalBlocks*int64(br*bc)) / float64(m.NNZ())
				if fill > MaxBCSRFillRatio {
					return nil, fmt.Errorf("%w BCSR: fill ratio %.1f exceeds %.0f", ErrBuild, fill, MaxBCSRFillRatio)
				}
			}
			f.blkCol = make([]int32, totalBlocks)
			f.val = make([]float64, totalBlocks*int64(br*bc))
		}
		at := int32(0)
		for bi := 0; bi < blockRows; bi++ {
			clear(blockOf)
			for r := bi * br; r < (bi+1)*br && r < m.Rows; r++ {
				cols, vals := m.Row(r)
				for k, c := range cols {
					bj := c / int32(bc)
					idx, ok := blockOf[bj]
					if !ok {
						idx = int(at) + len(blockOf)
						blockOf[bj] = idx
						if pass == 1 {
							f.blkCol[idx] = bj
						}
					}
					if pass == 1 {
						inR := r - bi*br
						inC := int(c) - int(bj)*bc
						f.val[idx*br*bc+inR*bc+inC] = vals[k]
					}
				}
			}
			at += int32(len(blockOf))
			if pass == 0 {
				totalBlocks = int64(at)
			}
			if pass == 1 {
				f.rowPtr[bi+1] = at
			}
		}
	}
	// Block columns within a block row are in first-seen order, which is
	// sorted because CSR rows are sorted and rows are visited in order only
	// per row; normalize by sorting each block row's blocks.
	for bi := 0; bi < blockRows; bi++ {
		lo, hi := f.rowPtr[bi], f.rowPtr[bi+1]
		sortBlocks(f.blkCol[lo:hi], f.val[int(lo)*br*bc:int(hi)*br*bc], br*bc)
	}
	f.bind(f)
	return f, nil
}

// sortBlocks sorts block columns ascending, moving the block value slabs of
// size blk alongside (insertion sort; block rows hold few blocks).
func sortBlocks(cols []int32, vals []float64, blk int) {
	tmp := make([]float64, blk)
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
			a := vals[j*blk : (j+1)*blk]
			b := vals[(j-1)*blk : j*blk]
			copy(tmp, a)
			copy(a, b)
			copy(b, tmp)
		}
	}
}

// Name implements Format.
func (f *BCSR) Name() string { return "BCSR" }

// Rows implements Format.
func (f *BCSR) Rows() int { return f.rows }

// Cols implements Format.
func (f *BCSR) Cols() int { return f.cols }

// NNZ implements Format.
func (f *BCSR) NNZ() int64 { return f.nnz }

// Bytes implements Format.
func (f *BCSR) Bytes() int64 {
	return int64(len(f.val))*8 + int64(len(f.blkCol))*4 + int64(len(f.rowPtr))*4
}

// Blocks returns the stored block count.
func (f *BCSR) Blocks() int { return len(f.blkCol) }

// Traits implements Format.
func (f *BCSR) Traits() Traits {
	pad := 0.0
	if f.nnz > 0 {
		pad = float64(int64(len(f.val))-f.nnz) / float64(f.nnz)
	}
	meta := 4.0
	if f.nnz > 0 {
		meta = float64(f.Bytes()-8*f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: RowGranular, PaddingRatio: pad, MetaBytesPerNNZ: meta,
		Class: ClassBlock, Preprocessed: true}
}

// maxStackBlockRows bounds the block heights served by the stack-resident
// row accumulators; taller blocks fall back to a heap buffer.
const maxStackBlockRows = 16

func (f *BCSR) blockRowRange(x, y []float64, lo, hi int) {
	if f.br == 2 && f.bc == 2 {
		f.blockRowRange2x2(x, y, lo, hi)
		return
	}
	br, bc := f.br, f.bc
	var sumsBuf [maxStackBlockRows]float64
	var sums []float64
	if br <= maxStackBlockRows {
		sums = sumsBuf[:br]
	} else {
		sums = make([]float64, br)
	}
	rowPtr, blkCol, val := f.rowPtr, f.blkCol, f.val
	blk := br * bc
	for bi := lo; bi < hi; bi++ {
		for r := range sums {
			sums[r] = 0
		}
		for b := int(rowPtr[bi]); b < int(rowPtr[bi+1]); b++ {
			baseCol := int(blkCol[b]) * bc
			off := b * blk
			if baseCol+bc <= f.cols {
				// Interior block: the whole x window is in range, no
				// per-element edge check.
				for r := 0; r < br; r++ {
					s := 0.0
					ro := off + r*bc
					for c := 0; c < bc; c++ {
						s += val[ro+c] * x[baseCol+c]
					}
					sums[r] += s
				}
				continue
			}
			for r := 0; r < br; r++ {
				s := 0.0
				for c := 0; c < bc; c++ {
					col := baseCol + c
					if col < f.cols {
						s += val[off+r*bc+c] * x[col]
					}
				}
				sums[r] += s
			}
		}
		for r := 0; r < br; r++ {
			row := bi*br + r
			if row < f.rows {
				y[row] = sums[r]
			}
		}
	}
}

// blockRowRange2x2 is the register-blocked micro-kernel for the default
// 2x2 geometry: both row sums live in registers, both x values load once
// per block, and only the matrix-edge block pays a column check.
func (f *BCSR) blockRowRange2x2(x, y []float64, lo, hi int) {
	rowPtr, blkCol, val := f.rowPtr, f.blkCol, f.val
	cols := f.cols
	useSIMD := simd.Enabled()
	for bi := lo; bi < hi; bi++ {
		var s0, s1 float64
		b := int(rowPtr[bi])
		bEnd := int(rowPtr[bi+1])
		if useSIMD {
			// Dispatched path over the interior blocks. Block columns are
			// sorted ascending, so a matrix-edge block (x window past cols)
			// can only be the last one; it stays on the scalar loop below.
			nb := bEnd - b
			if nb > 0 && int(blkCol[bEnd-1])*2+2 > cols {
				nb--
			}
			if nb >= simdMinN {
				s0, s1 = simd.Bcsr2x2(val[b*4:], blkCol[b:], x, nb)
				b += nb
			}
		}
		for ; b < bEnd; b++ {
			baseCol := int(blkCol[b]) * 2
			off := b * 4
			if baseCol+2 <= cols {
				x0, x1 := x[baseCol], x[baseCol+1]
				s0 += val[off]*x0 + val[off+1]*x1
				s1 += val[off+2]*x0 + val[off+3]*x1
			} else {
				x0 := x[baseCol]
				s0 += val[off] * x0
				s1 += val[off+2] * x0
			}
		}
		row := bi * 2
		if row < f.rows {
			y[row] = s0
		}
		if row+1 < f.rows {
			y[row+1] = s1
		}
	}
}

// blockRowRangeMulti2x2 is the fused register-blocked micro-kernel for the
// default 2x2 geometry: per 4-vector tile both rows' partial sums live in
// eight registers, and each block's four values load once to feed sixteen
// FMAs.
func (f *BCSR) blockRowRangeMulti2x2(x, y []float64, k, lo, hi int) {
	rowPtr, blkCol, val := f.rowPtr, f.blkCol, f.val
	cols := f.cols
	useSIMD := simd.Enabled()
	wide := !f.tune.NarrowTiles && useSIMD && simd.Width() >= 8
	for bi := lo; bi < hi; bi++ {
		row := bi * 2
		bLo, bEnd := int(rowPtr[bi]), int(rowPtr[bi+1])
		// As in the single-vector kernel, only the last (sorted) block of a
		// block row can overhang the matrix edge; the dispatched tile kernel
		// covers the interior prefix and the scalar loop finishes the edge.
		nInterior := bEnd - bLo
		if useSIMD && nInterior > 0 && int(blkCol[bEnd-1])*2+2 > cols {
			nInterior--
		}
		t := 0
		if wide && nInterior >= simdMinN {
			// Wide tile: the dispatched kernel covers the interior prefix,
			// the (at most one) edge block finishes in Go with the same
			// per-lane pair-sum order — bit-identical throughout.
			for ; t+multiTile8 <= k; t += multiTile8 {
				lo8, hi8 := simd.Bcsr2x2Tile8(val[bLo*4:], blkCol[bLo:], x[t:], nInterior, k)
				for b := bLo + nInterior; b < bEnd; b++ {
					baseCol := int(blkCol[b]) * 2
					off := b * 4
					v0, v1, v2, v3 := val[off], val[off+1], val[off+2], val[off+3]
					x0 := x[baseCol*k+t : baseCol*k+t+8 : baseCol*k+t+8]
					if baseCol+2 <= cols {
						x1 := x[(baseCol+1)*k+t : (baseCol+1)*k+t+8 : (baseCol+1)*k+t+8]
						for u := 0; u < 8; u++ {
							lo8[u] += v0*x0[u] + v1*x1[u]
							hi8[u] += v2*x0[u] + v3*x1[u]
						}
					} else {
						for u := 0; u < 8; u++ {
							lo8[u] += v0 * x0[u]
							hi8[u] += v2 * x0[u]
						}
					}
				}
				if row < f.rows {
					copy(y[row*k+t:row*k+t+8], lo8[:])
				}
				if row+1 < f.rows {
					copy(y[(row+1)*k+t:(row+1)*k+t+8], hi8[:])
				}
			}
		}
		for ; t+multiTile <= k; t += multiTile {
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			bStart := bLo
			if useSIMD && nInterior >= simdMinN {
				dLo, dHi := simd.Bcsr2x2Tile(val[bLo*4:], blkCol[bLo:], x[t:], nInterior, k)
				s00, s01, s02, s03 = dLo[0], dLo[1], dLo[2], dLo[3]
				s10, s11, s12, s13 = dHi[0], dHi[1], dHi[2], dHi[3]
				bStart = bLo + nInterior
			}
			for b := bStart; b < bEnd; b++ {
				baseCol := int(blkCol[b]) * 2
				off := b * 4
				v0, v1, v2, v3 := val[off], val[off+1], val[off+2], val[off+3]
				x0 := x[baseCol*k+t : baseCol*k+t+4 : baseCol*k+t+4]
				if baseCol+2 <= cols {
					x1 := x[(baseCol+1)*k+t : (baseCol+1)*k+t+4 : (baseCol+1)*k+t+4]
					s00 += v0*x0[0] + v1*x1[0]
					s01 += v0*x0[1] + v1*x1[1]
					s02 += v0*x0[2] + v1*x1[2]
					s03 += v0*x0[3] + v1*x1[3]
					s10 += v2*x0[0] + v3*x1[0]
					s11 += v2*x0[1] + v3*x1[1]
					s12 += v2*x0[2] + v3*x1[2]
					s13 += v2*x0[3] + v3*x1[3]
				} else {
					s00 += v0 * x0[0]
					s01 += v0 * x0[1]
					s02 += v0 * x0[2]
					s03 += v0 * x0[3]
					s10 += v2 * x0[0]
					s11 += v2 * x0[1]
					s12 += v2 * x0[2]
					s13 += v2 * x0[3]
				}
			}
			if row < f.rows {
				yb := y[row*k+t : row*k+t+4 : row*k+t+4]
				yb[0], yb[1], yb[2], yb[3] = s00, s01, s02, s03
			}
			if row+1 < f.rows {
				yb := y[(row+1)*k+t : (row+1)*k+t+4 : (row+1)*k+t+4]
				yb[0], yb[1], yb[2], yb[3] = s10, s11, s12, s13
			}
		}
		for ; t < k; t++ {
			var s0, s1 float64
			for b := int(rowPtr[bi]); b < int(rowPtr[bi+1]); b++ {
				baseCol := int(blkCol[b]) * 2
				off := b * 4
				x0 := x[baseCol*k+t]
				s0 += val[off] * x0
				s1 += val[off+2] * x0
				if baseCol+2 <= cols {
					x1 := x[(baseCol+1)*k+t]
					s0 += val[off+1] * x1
					s1 += val[off+3] * x1
				}
			}
			if row < f.rows {
				y[row*k+t] = s0
			}
			if row+1 < f.rows {
				y[(row+1)*k+t] = s1
			}
		}
	}
}

// blockRowRangeMulti is the fused generic-geometry kernel: per block row
// and 4-vector tile the row accumulators live in a small buffer while each
// block's values load once per tile.
func (f *BCSR) blockRowRangeMulti(x, y []float64, k, lo, hi int) {
	if f.br == 2 && f.bc == 2 {
		f.blockRowRangeMulti2x2(x, y, k, lo, hi)
		return
	}
	br, bc := f.br, f.bc
	var sumsBuf [multiTile * maxStackBlockRows]float64
	var sums []float64
	if br <= maxStackBlockRows {
		sums = sumsBuf[:br*multiTile]
	} else {
		sums = make([]float64, br*multiTile)
	}
	rowPtr, blkCol, val := f.rowPtr, f.blkCol, f.val
	blk := br * bc
	for bi := lo; bi < hi; bi++ {
		for t := 0; t < k; t += multiTile {
			tw := k - t
			if tw > multiTile {
				tw = multiTile
			}
			for i := range sums {
				sums[i] = 0
			}
			for b := int(rowPtr[bi]); b < int(rowPtr[bi+1]); b++ {
				baseCol := int(blkCol[b]) * bc
				off := b * blk
				for cc := 0; cc < bc; cc++ {
					col := baseCol + cc
					if col >= f.cols {
						break // edge block: remaining columns out of range
					}
					xb := x[col*k+t : col*k+t+tw : col*k+t+tw]
					for r := 0; r < br; r++ {
						v := val[off+r*bc+cc]
						sb := sums[r*multiTile : r*multiTile+tw : r*multiTile+tw]
						for q, xq := range xb {
							sb[q] += v * xq
						}
					}
				}
			}
			for r := 0; r < br; r++ {
				row := bi*br + r
				if row >= f.rows {
					break
				}
				copy(y[row*k+t:row*k+t+tw], sums[r*multiTile:r*multiTile+tw])
			}
		}
	}
}

// units: lanes take whole block rows.
func (f *BCSR) units() int { return f.blockRows }

// cum: stored block values plus a block-row visit each.
func (f *BCSR) cum(i int) int64 { return int64(f.rowPtr[i])*int64(f.br*f.bc) + int64(i) }

// plan balances blocks over whole block rows.
func (f *BCSR) plan(key exec.PlanKey, _ int) *exec.Plan {
	return rowPlan(f.rowPtr, key, sched.NNZBalanced)
}

func (f *BCSR) apply(y, x []float64, k, lo, hi int) {
	if k == 1 {
		f.blockRowRange(x, y, lo, hi)
		return
	}
	f.blockRowRangeMulti(x, y, k, lo, hi)
}
