// Package core implements the paper's primary contribution: the minimal
// matrix feature set of Section III-A that links sparse-matrix structure to
// the four classic SpMV performance bottlenecks, together with feature
// extraction, size-class labelling and feature-space arithmetic.
//
// The five features (plus the generator-internal scaled bandwidth) are:
//
//	f1  MemFootprintMB - CSR storage size, driver of memory-bandwidth intensity
//	f2  AvgNNZPerRow   - mean row length, driver of instruction-level parallelism
//	f3  SkewCoeff      - (max-avg)/avg row length, driver of load imbalance
//	f4a CrossRowSim    - adjacent-row column overlap, temporal locality on x
//	f4b AvgNumNeigh    - same-row adjacent-column clustering, spatial locality on x
//	    BWScaled       - mean row bandwidth / ncols, the generator's placement window
package core

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Bottleneck enumerates the four SpMV performance bottlenecks of Section II-A.
type Bottleneck int

// The four bottlenecks, in the paper's order.
const (
	BandwidthIntensity Bottleneck = iota // streaming traffic vs. memory bandwidth
	LowILP                               // short rows, loop overhead, poor vectorization
	LoadImbalance                        // uneven nonzeros per row vs. work distribution
	MemoryLatency                        // irregular accesses to the x vector
)

// String returns the conventional name of the bottleneck.
func (b Bottleneck) String() string {
	switch b {
	case BandwidthIntensity:
		return "memory-bandwidth intensity"
	case LowILP:
		return "low ILP"
	case LoadImbalance:
		return "load imbalance"
	case MemoryLatency:
		return "memory latency overheads"
	}
	return fmt.Sprintf("Bottleneck(%d)", int(b))
}

// FeatureVector is a point in the paper's feature space. It fully describes
// a matrix for the purposes of the performance analysis; the artificial
// generator maps a FeatureVector (plus a seed) back to a concrete matrix.
type FeatureVector struct {
	Rows, Cols     int
	NNZ            int64
	MemFootprintMB float64 // f1: CSR bytes / 2^20
	AvgNNZPerRow   float64 // f2
	SkewCoeff      float64 // f3: (max-avg)/avg
	CrossRowSim    float64 // f4.a in [0,1]
	AvgNumNeigh    float64 // f4.b in [0,2]
	BWScaled       float64 // row bandwidth / cols, in [0,1]
}

// NeighborDistance is the maximum column distance (left or right) at which a
// same-row or next-row element counts as a neighbor. The paper uses 1.
const NeighborDistance = 1

// Extract measures the full feature vector of a concrete matrix. It runs in
// O(nnz) time and O(cols/64) extra space.
func Extract(m *matrix.CSR) FeatureVector {
	fv := FeatureVector{
		Rows:           m.Rows,
		Cols:           m.Cols,
		NNZ:            int64(m.NNZ()),
		MemFootprintMB: m.FootprintMB(),
		AvgNNZPerRow:   m.AvgRowNNZ(),
	}
	if m.Rows == 0 || m.NNZ() == 0 {
		return fv
	}
	avg := fv.AvgNNZPerRow
	fv.SkewCoeff = (float64(m.MaxRowNNZ()) - avg) / avg
	fv.AvgNumNeigh = AvgNumNeighbors(m)
	fv.CrossRowSim = CrossRowSimilarity(m)
	fv.BWScaled = AvgRowBandwidthScaled(m)
	return fv
}

// AvgNumNeighbors computes f4.b: for every nonzero, count same-row elements
// within NeighborDistance columns (left or right), then average over all
// nonzeros. Because columns within a row are sorted and unique, each nonzero
// has at most 2 such neighbors, so the result lies in [0, 2].
func AvgNumNeighbors(m *matrix.CSR) float64 {
	if m.NNZ() == 0 {
		return 0
	}
	var neigh int64
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k]-cols[k-1] <= NeighborDistance {
				neigh += 2 // the pair contributes one neighbor to each side
			}
		}
	}
	return float64(neigh) / float64(m.NNZ())
}

// CrossRowSimilarity computes f4.a: for each row, the fraction of its
// elements that have at least one element in the NEXT row within
// NeighborDistance columns; averaged over rows that have a next row and at
// least one element. The result lies in [0, 1].
func CrossRowSimilarity(m *matrix.CSR) float64 {
	if m.Rows < 2 {
		return 0
	}
	var simSum float64
	counted := 0
	for i := 0; i < m.Rows-1; i++ {
		cur, _ := m.Row(i)
		next, _ := m.Row(i + 1)
		if len(cur) == 0 {
			continue
		}
		counted++
		if len(next) == 0 {
			continue
		}
		matched := 0
		j := 0
		for _, c := range cur {
			// Advance the next-row cursor past columns left of the window.
			for j < len(next) && next[j] < c-NeighborDistance {
				j++
			}
			if j < len(next) && next[j] <= c+NeighborDistance {
				matched++
			}
		}
		simSum += float64(matched) / float64(len(cur))
	}
	if counted == 0 {
		return 0
	}
	return simSum / float64(counted)
}

// AvgRowBandwidthScaled returns the mean row bandwidth (column span of each
// non-empty row) divided by the number of columns, the generator's bw_scaled
// parameter measured on a concrete matrix.
func AvgRowBandwidthScaled(m *matrix.CSR) float64 {
	if m.Cols == 0 {
		return 0
	}
	var sum float64
	counted := 0
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) == 0 {
			continue
		}
		counted++
		sum += float64(m.RowBandwidth(i))
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted) / float64(m.Cols)
}

// SizeClass labels one regularity subfeature range as in Table III, where
// each subfeature's range is split into three equal subranges and "Small"
// implies an irregular matrix.
type SizeClass int

// Size classes in increasing order of regularity.
const (
	Small SizeClass = iota
	Medium
	Large
)

// String returns the Table III letter for the class.
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "S"
	case Medium:
		return "M"
	case Large:
		return "L"
	}
	return "?"
}

// ClassifyRange places v within [lo, hi] split into three equal subranges.
// Values outside the range clamp to the nearest class.
func ClassifyRange(v, lo, hi float64) SizeClass {
	if hi <= lo {
		return Medium
	}
	t := (v - lo) / (hi - lo)
	switch {
	case t < 1.0/3:
		return Small
	case t < 2.0/3:
		return Medium
	default:
		return Large
	}
}

// NeighClass classifies the f4.b value over its [0, 2] range.
func (f FeatureVector) NeighClass() SizeClass { return ClassifyRange(f.AvgNumNeigh, 0, 2) }

// SimClass classifies the f4.a value over its [0, 1] range.
func (f FeatureVector) SimClass() SizeClass { return ClassifyRange(f.CrossRowSim, 0, 1) }

// RegularityLabel returns the two-letter Table III label, neighbor class
// first, e.g. "LS" for clustered but dissimilar rows.
func (f FeatureVector) RegularityLabel() string {
	return f.NeighClass().String() + f.SimClass().String()
}

// OperationalIntensity returns the CSR flop-per-byte ratio of the matrix:
// 2 flops per nonzero over the CSR bytes plus the streaming store of y.
// The x-vector traffic is excluded here and handled by the cache model.
func (f FeatureVector) OperationalIntensity() float64 {
	bytes := f.MemFootprintMB*(1<<20) + 8*float64(f.Rows)
	if bytes == 0 {
		return 0
	}
	return 2 * float64(f.NNZ) / bytes
}

// OperationalIntensityMulti returns the flop-per-byte ratio of a fused
// k-vector SpMM pass over the matrix: 2k flops per nonzero against the CSR
// stream (loaded once per pass, however many right-hand sides ride on it)
// plus the k-wide streaming of the X and Y blocks. For k = 1 the x-block
// term is folded into the cache model exactly as in OperationalIntensity;
// for k > 1 the blocks are dense streams and are charged here. This is the
// RHS-count axis of the feature space: intensity grows almost linearly in
// k until the block traffic itself dominates, which is why the format
// win-rate ordering flips between the k = 1 and k = 8 regimes.
func (f FeatureVector) OperationalIntensityMulti(k int) float64 {
	if k <= 1 {
		return f.OperationalIntensity()
	}
	bytes := f.MemFootprintMB*(1<<20) + 8*float64(k)*float64(f.Rows+f.Cols)
	if bytes == 0 {
		return 0
	}
	return 2 * float64(f.NNZ) * float64(k) / bytes
}

// Distance returns a dimensionless feature-space distance used to pick the
// nearest friend of a validation matrix: the RMS of per-feature relative (or
// range-scaled) differences.
func Distance(a, b FeatureVector) float64 {
	rel := func(x, y float64) float64 {
		den := math.Max(math.Abs(x), math.Abs(y))
		if den == 0 {
			return 0
		}
		return (x - y) / den
	}
	d1 := rel(a.MemFootprintMB, b.MemFootprintMB)
	d2 := rel(a.AvgNNZPerRow, b.AvgNNZPerRow)
	d3 := rel(a.SkewCoeff+1, b.SkewCoeff+1) // +1 so balanced matrices compare stably
	d4 := (a.CrossRowSim - b.CrossRowSim)   // already in [0,1]
	d5 := (a.AvgNumNeigh - b.AvgNumNeigh) / 2
	return math.Sqrt((d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5) / 5)
}

// String formats the feature vector compactly.
func (f FeatureVector) String() string {
	return fmt.Sprintf("fv{%.1fMB nzr=%.1f skew=%.0f sim=%.2f neigh=%.2f bw=%.2f}",
		f.MemFootprintMB, f.AvgNNZPerRow, f.SkewCoeff, f.CrossRowSim, f.AvgNumNeigh, f.BWScaled)
}
