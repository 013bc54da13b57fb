package device

// The Williams-Waterman-Patterson roofline model used in Fig. 1 of the
// paper: per-matrix attainable-performance bounds from the CSR arithmetic
// intensity against each device's measured DRAM and last-level-cache
// bandwidths.

import (
	"math"

	"repro/internal/core"
)

// Roof describes one device's performance ceilings.
type Roof struct {
	PeakGFLOPS float64 // compute ceiling
	MemBWGBs   float64 // measured DRAM/HBM bandwidth
	LLCBWGBs   float64 // measured last-level-cache bandwidth (0 if none)
	LLCBytes   int64   // last-level-cache capacity
}

// Bound returns the attainable GFLOP/s at arithmetic intensity ai
// (flops/byte) against the given bandwidth ceiling.
func (r Roof) Bound(ai, bwGBs float64) float64 {
	return math.Min(r.PeakGFLOPS, ai*bwGBs)
}

// csrIntensity returns the arithmetic intensity of CSR SpMV for the matrix:
// 2 flops per nonzero over the CSR bytes plus one streaming pass of x and y.
func csrIntensity(fv core.FeatureVector) float64 {
	bytes := fv.MemFootprintMB*(1<<20) + 8*float64(fv.Rows) + 8*float64(fv.Cols)
	if bytes <= 0 {
		return 0
	}
	return 2 * float64(fv.NNZ) / bytes
}

// MemoryBound is the paper's "Roofline Memory" point: the DRAM-bandwidth
// ceiling at the matrix's CSR intensity.
func (r Roof) MemoryBound(fv core.FeatureVector) float64 {
	return r.Bound(csrIntensity(fv), r.MemBWGBs)
}

// LLCBound is the paper's "Roofline LLC" point: the cache-bandwidth ceiling,
// reachable only by matrices whose working set fits the LLC. Devices
// without a usable LLC roof return the memory bound.
func (r Roof) LLCBound(fv core.FeatureVector) float64 {
	if r.LLCBWGBs <= 0 {
		return r.MemoryBound(fv)
	}
	return r.Bound(csrIntensity(fv), r.LLCBWGBs)
}

// Applicable returns the tighter-but-correct roof for the matrix: the LLC
// bound when the whole working set is cache-resident, the memory bound
// otherwise.
func (r Roof) Applicable(fv core.FeatureVector) float64 {
	workingSet := fv.MemFootprintMB*(1<<20) + 8*float64(fv.Rows+fv.Cols)
	if r.LLCBytes > 0 && workingSet <= 0.8*float64(r.LLCBytes) {
		return r.LLCBound(fv)
	}
	return r.MemoryBound(fv)
}
