package formats

// MultiTraits: what a format's storage costs look like to a fused k-wide
// SpMM pass, which differs from the k = 1 view in two opposing ways the
// old model collapsed into "same traits":
//
//   - Padding skip. The fused HYB kernel walks its slab's rows through the
//     rowLen table, so tail padding — which the single-vector kernel
//     streams on every call — is never touched at all.
//   - Column-stride line waste. The slab layouts are column-major (stride
//     = rows for HYB's slab, = C for SELL chunks), so a fused row-major walk
//     uses one entry per loaded value line and relies on nearby rows (HYB)
//     or the other lanes and register tiles (SELL) re-hitting the line while
//     it is still cached. While the reuse window fits in cache the walk is
//     free; once the window spills — wide rows, giant skew-sorted chunks —
//     every reuse becomes its own memory transaction and the effective
//     stream inflates toward the line/entry ratio.
//
// Modeling both closes most of the model-only selection gap at k = 8: the
// old presentation charged the fused slab walks padding they skip, ignored
// their spilled reuse window on wide rows, and let SELL-C-s keep its
// compact k = 1 traits even when one giant chunk blows the slab far past
// any cache.

import (
	"math"

	"repro/internal/core"
)

// Line-waste model constants. These describe the fused kernels' reuse
// windows against a portable private-cache budget; like the device-model
// knobs they are fixed constants of the reproduction, not per-experiment
// tuning.
const (
	// multiReuseCacheBytes is the cache budget a fused slab walk can count
	// on for line reuse (roughly an L1D plus the hot half of a per-core L2
	// slice, shared with the streaming x block).
	multiReuseCacheBytes = 48 << 10

	// multiValLineEntries is the worst-case inflation of the value stream:
	// a 64-byte line holds 8 float64 slab entries, so a fully-spilled
	// window loads every line up to 8 times.
	multiValLineEntries = 8

	// multiXBytesPerEntry is the x-block traffic that competes for the
	// reuse cache per touched slab entry and k right-hand sides: a k-wide
	// row-major X block keeps one gather's operands on min(k, 8) doubles
	// of a single line.
	multiXBytesPerEntry = 8
)

// lineWaste maps a reuse-window size to the traffic inflation of a strided
// slab walk: 1 while the window fits the budget, growing linearly as the
// window spills, saturating at the line/entry ratio.
func lineWaste(windowBytes float64) float64 {
	w := windowBytes / multiReuseCacheBytes
	if w <= 1 {
		return 1
	}
	if w > multiValLineEntries {
		return multiValLineEntries
	}
	return w
}

// clampedRowShape mirrors EstimateTraits' geometry clamp: a row cannot be
// longer than the column count, so the effective skew caps at cols/avg-1.
func clampedRowShape(fv core.FeatureVector) (avg, skew float64) {
	avg = math.Max(fv.AvgNNZPerRow, 1)
	skew = math.Max(fv.SkewCoeff, 0)
	if fv.Cols > 0 {
		if maxSkew := float64(fv.Cols)/avg - 1; skew > maxSkew {
			skew = math.Max(maxSkew, 0)
		}
	}
	return avg, skew
}

// heavyRowShare estimates the fraction of nonzeros living in rows near the
// maximum length — the rows whose fused walk windows are skew-sized rather
// than avg-sized. Under the generator's exponential decay the heavy mass
// concentrates in the few longest rows, so the single max row's share is
// the right order.
func heavyRowShare(fv core.FeatureVector, avg, skew float64) float64 {
	if fv.NNZ <= 0 {
		return 0
	}
	share := avg * (1 + skew) / float64(fv.NNZ)
	if share > 1 {
		return 1
	}
	return share
}

// xWindowBytes is the per-entry x-block pressure on the reuse cache for a
// k-wide pass (a k > 8 block still gathers whole lines).
func xWindowBytes(k int) float64 {
	return multiXBytesPerEntry * math.Min(float64(k), 8)
}

// MultiTraits returns the traits the named format presents to a k-wide
// SpMM pass, plus whether that pass is fused. For k <= 1, and for every
// format without slab striding, the traits equal EstimateTraits; the fused
// slab formats (SELL-C-s, HYB's slab) get the padding-skip and
// line-waste corrections described above. The fused/fallback asymmetry in
// the second return value is what device.Spec.EstimateMulti turns into the
// k-regime ranking flip: fused formats amortize the matrix stream over k
// vectors, fallback formats do not.
func MultiTraits(name string, fv core.FeatureVector, k int) (Traits, bool) {
	tr := EstimateTraits(name, fv)
	fused := FusedMulti(name)
	if k <= 1 || !fused {
		return tr, fused
	}
	switch name {
	case "SELL-C-s":
		tr = sellMultiTraits(fv, k, tr)
	case "HYB":
		tr = hybMultiTraits(fv, k, tr)
	}
	return tr, fused
}

// sellMultiTraits models the fused SELL-C-sigma kernel: lanes re-walk
// their chunk's slab once per lane and register tile, so a chunk's slab
// must stay cached across C * k/4 passes. Sigma-sorting keeps bulk chunks
// near avg width (the padding estimate already covers the touched slack —
// the fused kernel does stream chunk padding), but under heavy skew the
// giant rows share one chunk whose slab dwarfs any cache, and that chunk's
// share of the stream pays the full line waste.
func sellMultiTraits(fv core.FeatureVector, k int, base Traits) Traits {
	avg, skew := clampedRowShape(fv)
	slabPerRow := 12 * (1 + base.PaddingRatio) // chunk slab bytes per stored entry
	c := float64(DefaultChunkC())              // the chunk the registry actually builds
	bulk := lineWaste(c * avg * slabPerRow)
	heavy := lineWaste(c * avg * (1 + skew) * slabPerRow)
	hs := heavyRowShare(fv, avg, skew)
	waste := (1-hs)*bulk + hs*heavy
	tr := base
	tr.MetaBytesPerNNZ = (8+base.MetaBytesPerNNZ)*waste - 8
	return tr
}

// hybMultiTraits models the fused HYB kernel: the slab is width-capped at
// the mean row length (so its reuse window is avg-sized with no heavy tail
// — spill absorbed the skew) and skips its padding via the rowLen table;
// the spill streams contiguously with no stride waste. Only the
// slab-resident share of the stream pays the line waste.
func hybMultiTraits(fv core.FeatureVector, k int, base Traits) Traits {
	avg, skew := clampedRowShape(fv)
	spill := hybSpillFraction(skew)
	waste := lineWaste(multiValLineEntries * avg * (12 + xWindowBytes(k)))
	slabShare := 1 - spill
	// Slab entries: 12 bytes inflated by waste, padding skipped; spill
	// entries keep their 16-byte COO cost; the split row-length table and
	// the spill phase's k-wide y reload (the second pass reads and rewrites
	// Y on top of the slab result) ride on top.
	meta := slabShare*12*waste + spill*16 - 8 + 4/avg + 16/avg
	tr := base
	tr.PaddingRatio = 0
	tr.MetaBytesPerNNZ = meta
	tr.ColumnMajor = false // the fused slab walk is row-major
	return tr
}
