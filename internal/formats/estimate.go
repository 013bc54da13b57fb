package formats

import (
	"math"

	"repro/internal/core"
)

// EstimateTraits predicts the Traits a format would have if built for a
// matrix with the given features, without materializing the matrix. The
// analytical device model uses these for full-dataset sweeps; tests
// cross-validate them against actually built formats on scaled matrices.
//
// The estimates follow the structural arithmetic of each format:
//
//   - ELL pads every row to the maximum, so its padding ratio equals the
//     skew coefficient ((max-avg)/avg) by definition.
//   - HYB splits at the mean row length; under the generator's exponential
//     skew profile with ratio R = 1+skew, the spilled (COO) fraction of
//     nonzeros approaches 1 - (1+ln R)/R, and the ELL padding mirrors it.
//   - SELL-C-sigma sorts rows within sigma-row windows, shrinking padding
//     to the within-window length variation.
//   - SparseX encodes horizontal runs: with neighbor probability
//     p = avg_num_neigh/2, run lengths are geometric and the fraction of
//     elements inside runs of length >= MinRunLen is p^3(4-3p).
//   - VSL pads every column stream to a multiple of the accumulator depth,
//     costing ~(depth-1)/2 slots per non-empty column. The Alveo testbed
//     prices it; the host has no VSL kernel.
//
// Unknown format names (DIA among them: no testbed offers it and the host
// does not build it) return a neutral CSR-like estimate.
func EstimateTraits(name string, fv core.FeatureVector) Traits {
	avg := math.Max(fv.AvgNNZPerRow, 1)
	skew := math.Max(fv.SkewCoeff, 0)
	// A row cannot exceed the column count: clamp the effective skew the
	// same way the generator must.
	if fv.Cols > 0 {
		if maxSkew := float64(fv.Cols)/avg - 1; skew > maxSkew {
			skew = math.Max(maxSkew, 0)
		}
	}
	csrMeta := 4 + 4/avg

	switch name {
	case "COO":
		return Traits{Balancing: NNZGranular, MetaBytesPerNNZ: 8, Class: ClassEntry}
	case "Naive-CSR":
		return Traits{Balancing: RowGranular, MetaBytesPerNNZ: csrMeta, Class: ClassDotGo}
	case "Vec-CSR":
		return Traits{Balancing: RowGranular, MetaBytesPerNNZ: csrMeta, Class: ClassDotGather}
	case "Bal-CSR":
		return Traits{Balancing: NNZGranular, MetaBytesPerNNZ: csrMeta, Class: ClassDotGo}
	case "MKL-IE":
		t := Traits{Balancing: RowGranular, MetaBytesPerNNZ: csrMeta, Preprocessed: true, Class: ClassDotGather}
		if skew > balMinSkew {
			t.Balancing = NNZGranular
		}
		return t
	case "ELL":
		// Padded slots cost a full 12 bytes each: meta = 12*(1+pad) - 8.
		pad := skew
		return Traits{Balancing: RowGranular, PaddingRatio: pad,
			MetaBytesPerNNZ: 4 + 12*pad, Class: ClassSweep, ColumnMajor: true}
	case "HYB":
		spill := hybSpillFraction(skew)
		pad := spill + 0.12 // the distribution noise pads short rows too
		return Traits{Balancing: NNZGranular, PaddingRatio: pad,
			MetaBytesPerNNZ: 4*(1+pad) + 8*spill, Class: ClassSweep, ColumnMajor: true}
	case "CSR5":
		// Tile descriptors: flags (8B) + lane bases (16B) per 64 entries,
		// plus the segment tables (12B per non-empty row).
		meta := 4 + 24.0/64 + 12/avg
		return Traits{Balancing: ItemGranular, MetaBytesPerNNZ: meta,
			Class: ClassTile, Preprocessed: true}
	case "Merge-CSR":
		return Traits{Balancing: ItemGranular, MetaBytesPerNNZ: csrMeta, Class: ClassRowSum}
	case "SELL-C-s":
		pad := sellPadding(skew, fv.Rows)
		return Traits{Balancing: RowGranular, PaddingRatio: pad,
			MetaBytesPerNNZ: 4 + 12*pad + 4/avg, Class: ClassLanes, Preprocessed: true}
	case "SparseX":
		p := math.Min(fv.AvgNumNeigh/2, 0.999)
		runFrac := math.Pow(p, 3) * (4 - 3*p)
		// The unit-stream decode costs roughly one extra byte of effective
		// traffic per nonzero, plus scalar decode work (DecodeCycles) that
		// binds on few-core hosts — so compression only pays off once runs
		// dominate and the stream is genuinely bandwidth-bound: SparseX's
		// large-compressible-matrix niche.
		meta := runFrac*1.0 + (1-runFrac)*3.0 + 12/avg + 1.0
		return Traits{Balancing: NNZGranular, MetaBytesPerNNZ: meta,
			Class: ClassEntry, DecodeCycles: spxDecodeCycles, Preprocessed: true}
	case "VSL":
		// Every column in a 2D partition pads to the partition's longest
		// column: roughly the accumulator depth (8) plus the upper tail of
		// the column-length distribution (~3 sigma) over the mean length,
		// worse when rows are dissimilar (more distinct short columns).
		// This is the hypersparsity blow-up of the paper's Fig 4 (up to
		// ~20x for short rows). The additional layout inflation under row
		// skew is a property of the HBM image only; the FPGA device model
		// applies it to the capacity gate.
		colLen := math.Max(avg, 1)
		pad := (8 + 3*math.Sqrt(colLen)) / colLen * (2 - fv.CrossRowSim) / 1.5
		return Traits{Balancing: NNZGranular, PaddingRatio: pad,
			MetaBytesPerNNZ: 8 + 16*pad, Class: ClassSweep, ColumnMajor: true, Preprocessed: true}
	case "BCSR":
		fill := math.Min(1+fv.AvgNumNeigh/2+0.5*fv.CrossRowSim, 4)
		pad := 4/fill - 1
		// A stored 2x2 block streams 32 value bytes plus a 4-byte block
		// column index whatever its fill, so per nonzero the kernel moves
		// 36/fill bytes — the padded values are traffic, not just slack,
		// which is what makes BCSR lose on low-fill matrices.
		return Traits{Balancing: RowGranular, PaddingRatio: pad,
			MetaBytesPerNNZ: 36/fill - 8, Class: ClassBlock, Preprocessed: true}
	}
	return Traits{Balancing: RowGranular, MetaBytesPerNNZ: csrMeta, Class: ClassRowSum}
}

// hybSpillFraction is the fraction of nonzeros above the mean row length
// under the generator's exponential skew profile with ratio R = 1+skew.
func hybSpillFraction(skew float64) float64 {
	r := 1 + skew
	if r <= 1 {
		return 0.06 // normal-noise spill only
	}
	f := 1 - (1+math.Log(r))/r
	return math.Max(f, 0.06)
}

// sellPadding estimates SELL-C-sigma padding. Sorting inside sigma-row
// windows leaves only chunk-granularity length variation: consecutive
// sorted rows differ by roughly the skew profile's decay across one chunk
// of C rows, so padding scales with skew*C/rows plus distribution noise.
func sellPadding(skew float64, rows int) float64 {
	if rows <= 0 {
		return 0.05
	}
	chunkShare := float64(DefaultChunkC()) / float64(rows)
	if chunkShare > 1 {
		chunkShare = 1
	}
	return math.Min(skew, 0.02+skew*chunkShare)
}

// EstimateFeasible reports whether a format can be built at all for the
// given features: ELL refuses structurally hostile matrices instead of
// exploding. (BCSR's 2x2 blocks bound its fill at 4 and refuse nothing.)
func EstimateFeasible(name string, fv core.FeatureVector) bool {
	if name != "ELL" {
		return true
	}
	padded := float64(fv.NNZ) * (1 + EstimateTraits(name, fv).PaddingRatio)
	return padded <= MaxELLPaddedEntries
}
