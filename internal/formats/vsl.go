package formats

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// VSL is a CSC-variant format modeled on the Xilinx Vitis Sparse Library
// design for the Alveo-U280 (Section II-B.4): the matrix is transposed to
// column-major order and split into 2D partitions — Channels column groups
// (the HBM pseudo-channels feeding the 16 execution units) x RowBlocks row
// blocks. Inside a partition every non-empty column segment is zero-padded
// to the partition's maximum segment length, rounded up to a multiple of
// AccLatency (the double-precision accumulation pipeline depth). This is
// the padding scheme whose blow-up on hypersparse and irregular matrices
// drives the paper's FPGA observations; construction fails when the padded
// image no longer fits the configured HBM capacity — the failure mode that
// removed 10 validation matrices from the paper's FPGA runs.
type VSL struct {
	driver
	rows, cols int
	nnz        int64
	channels   int

	// Per channel: a flattened padded stream of (rowIdx, value) pairs plus
	// the x-gather index per entry. Padding entries carry value 0.
	chRow [][]int32
	chCol [][]int32
	chVal [][]float64

	paddedEntries int64
}

// VSLConfig controls the partition layout and the capacity gate.
type VSLConfig struct {
	Channels      int   // parallel execution units (16 on the Alveo-U280)
	RowBlocks     int   // 2D partition height count (1: column-only padding)
	AccLatency    int   // accumulator pipeline depth; streams pad to multiples of it
	CapacityBytes int64 // HBM capacity available for the padded matrix image
}

// DefaultVSLConfig mirrors the Alveo-U280: 16 units, 8 row blocks, 8-deep
// accumulation, 8 GiB of HBM.
func DefaultVSLConfig() VSLConfig {
	return VSLConfig{Channels: 16, RowBlocks: 8, AccLatency: 8, CapacityBytes: 8 << 30}
}

// NewVSL builds the VSL format, failing if the padded image exceeds the
// configured capacity.
func NewVSL(m *matrix.CSR, cfg VSLConfig) (*VSL, error) {
	if cfg.Channels < 1 || cfg.AccLatency < 1 {
		return nil, fmt.Errorf("%w VSL: config %+v", ErrBuild, cfg)
	}
	if cfg.RowBlocks < 1 {
		cfg.RowBlocks = 1
	}
	t := m.Transpose() // rows of t are columns of m
	f := &VSL{
		rows: m.Rows, cols: m.Cols, nnz: int64(m.NNZ()), channels: cfg.Channels,
	}
	f.chRow = make([][]int32, cfg.Channels)
	f.chCol = make([][]int32, cfg.Channels)
	f.chVal = make([][]float64, cfg.Channels)

	blockOf := func(row int32) int {
		b := int(row) * cfg.RowBlocks / max(m.Rows, 1)
		if b >= cfg.RowBlocks {
			b = cfg.RowBlocks - 1
		}
		return b
	}

	// Contiguous column blocks per channel keep x accesses streaming.
	for ch := 0; ch < cfg.Channels; ch++ {
		colLo := m.Cols * ch / cfg.Channels
		colHi := m.Cols * (ch + 1) / cfg.Channels
		var rowIdx, colIdx []int32
		var val []float64

		// Segment the channel's columns by row block and find each
		// partition's maximum segment length.
		segLen := make([][]int32, cfg.RowBlocks) // per block: per column length
		maxSeg := make([]int, cfg.RowBlocks)
		for b := range segLen {
			segLen[b] = make([]int32, colHi-colLo)
		}
		for c := colLo; c < colHi; c++ {
			rows, _ := t.Row(c)
			for _, r := range rows {
				segLen[blockOf(r)][c-colLo]++
			}
		}
		for b := 0; b < cfg.RowBlocks; b++ {
			for _, n := range segLen[b] {
				if int(n) > maxSeg[b] {
					maxSeg[b] = int(n)
				}
			}
			// Round the partition stride up to the accumulator depth.
			if maxSeg[b] > 0 {
				maxSeg[b] = (maxSeg[b] + cfg.AccLatency - 1) / cfg.AccLatency * cfg.AccLatency
			}
		}

		// Emit the padded streams partition by partition.
		for b := 0; b < cfg.RowBlocks; b++ {
			stride := maxSeg[b]
			if stride == 0 {
				continue
			}
			for c := colLo; c < colHi; c++ {
				n := int(segLen[b][c-colLo])
				if n == 0 {
					continue // fully empty segments occupy no stream slots
				}
				rows, vals := t.Row(c)
				for k, r := range rows {
					if blockOf(r) != b {
						continue
					}
					rowIdx = append(rowIdx, r)
					colIdx = append(colIdx, int32(c))
					val = append(val, vals[k])
				}
				for p := n; p < stride; p++ {
					rowIdx = append(rowIdx, 0)
					colIdx = append(colIdx, int32(c))
					val = append(val, 0)
				}
			}
		}
		f.chRow[ch] = rowIdx
		f.chCol[ch] = colIdx
		f.chVal[ch] = val
		f.paddedEntries += int64(len(val))
	}

	if bytes := f.Bytes(); cfg.CapacityBytes > 0 && bytes > cfg.CapacityBytes {
		return nil, fmt.Errorf("%w VSL: padded image %d bytes exceeds HBM capacity %d",
			ErrBuild, bytes, cfg.CapacityBytes)
	}
	f.bind(f)
	return f, nil
}

// Name implements Format.
func (f *VSL) Name() string { return "VSL" }

// Rows implements Format.
func (f *VSL) Rows() int { return f.rows }

// Cols implements Format.
func (f *VSL) Cols() int { return f.cols }

// NNZ implements Format.
func (f *VSL) NNZ() int64 { return f.nnz }

// Bytes implements Format: 16 bytes per padded stream entry (value, row
// index, gather index).
func (f *VSL) Bytes() int64 { return f.paddedEntries * 16 }

// PaddedEntries returns the stream slot count including padding.
func (f *VSL) PaddedEntries() int64 { return f.paddedEntries }

// Traits implements Format.
func (f *VSL) Traits() Traits {
	pad := 0.0
	meta := 8.0
	if f.nnz > 0 {
		pad = float64(f.paddedEntries-f.nnz) / float64(f.nnz)
		meta = float64(f.Bytes()-8*f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: NNZGranular, PaddingRatio: pad,
		MetaBytesPerNNZ: meta, Class: ClassSweep, ColumnMajor: true, Preprocessed: true}
}

// units: lanes take whole channels (the hardware's execution units).
func (f *VSL) units() int { return f.channels }

// cum: padded stream slots plus the row visits of the final reduce,
// spread evenly over the channels.
func (f *VSL) cum(i int) int64 {
	return (f.paddedEntries + int64(f.rows)) * int64(i) / int64(f.channels)
}

// apply is the serial kernel: every channel streams straight into y
// (carriers are never sub-ranged). Single-vector only: the FPGA design
// this format models streams one vector through the HBM channels, and a
// fused variant would multiply the already megabyte-scale partial-vector
// scratch by k, so VSL multiplies blocks one column at a time.
func (f *VSL) apply(y, x []float64, _, lo, hi int) {
	zero(y)
	for ch := lo; ch < hi; ch++ {
		row, col, val := f.chRow[ch], f.chCol[ch], f.chVal[ch]
		for k, v := range val {
			y[row[k]] += v * x[col[k]]
		}
	}
}

// vslScratch is the plan-cached per-lane partial result vectors. Reusing
// them across calls saves a rows-sized allocation per lane per call — the
// dominant per-call cost of the seed implementation.
type vslScratch struct {
	partials [][]float64
}

func (f *VSL) newScratch(lanes int) *vslScratch {
	sc := &vslScratch{partials: make([][]float64, lanes)}
	for w := range sc.partials {
		sc.partials[w] = make([]float64, f.rows)
	}
	return sc
}

// carries implements carrier: every lane touches every row.
func (f *VSL) carries(int) bool { return true }

// plan runs channels concurrently into private partial vectors (the
// hardware writes disjoint HBM banks), reduced at the end. Lanes beyond
// the channel count cannot help, as on the FPGA. Lane w strides the
// channels w, w+lanes, ...; the ranges only fix the lane count.
func (f *VSL) plan(key exec.PlanKey, _ int) *exec.Plan {
	lanes := key.Workers
	if lanes > f.channels {
		lanes = f.channels
	}
	return &exec.Plan{Ranges: make([]sched.Range, lanes), Scratch: f.newScratch(lanes)}
}

// begin implements carrier. The scratch is lanes x rows of partial
// vectors — megabytes — so the loser of the plan lock pays the seed's
// per-call allocation, but only under actual contention.
func (f *VSL) begin(pl *exec.Plan, _ []float64, _ int, private bool) any {
	if private {
		return f.newScratch(len(pl.Ranges))
	}
	return pl.Scratch
}

// lane implements carrier.
func (f *VSL) lane(c any, pl *exec.Plan, w int, _, x []float64, _ int) {
	part := c.(*vslScratch).partials[w]
	zero(part)
	for ch := w; ch < f.channels; ch += len(pl.Ranges) {
		row, col, val := f.chRow[ch], f.chCol[ch], f.chVal[ch]
		for k, v := range val {
			part[row[k]] += v * x[col[k]]
		}
	}
}

// finish implements carrier: reduce the partials in lane order.
func (f *VSL) finish(c any, y []float64, _ int) {
	zero(y)
	for _, part := range c.(*vslScratch).partials {
		for i, v := range part {
			y[i] += v
		}
	}
}
