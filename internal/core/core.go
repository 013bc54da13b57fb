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

// Extract measures the full feature vector of a concrete matrix in one pass
// over its rows, in O(nnz) time and O(cols/64) extra space:
//
//   - SkewCoeff from the longest row;
//   - AvgNumNeigh (f4.b): for every nonzero, the same-row elements within
//     NeighborDistance columns, averaged over all nonzeros. Columns within a
//     row are sorted and unique, so the result lies in [0, 2];
//   - CrossRowSim (f4.a): for each non-empty row that has a next row, the
//     fraction of its elements with an element of the next row within
//     NeighborDistance columns, averaged over those rows; in [0, 1];
//   - BWScaled: the mean column span of the non-empty rows over Cols.
//
// The next row's columns are marked in a bitmap shifted by NeighborDistance,
// so an element at column c looks for next-row neighbors in the
// 2*NeighborDistance+1 bits from c.
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
	const window = 1<<(2*NeighborDistance+1) - 1
	mark := make([]uint64, m.Cols/64+2) // bit c+NeighborDistance for next-row column c
	maxRow, neigh := 0, int64(0)
	var simSum, bwSum float64
	simRows, bwRows := 0, 0
	for i := 0; i < m.Rows; i++ {
		cur := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
		if len(cur) == 0 {
			continue
		}
		maxRow = max(maxRow, len(cur))
		bwSum += float64(int(cur[len(cur)-1]-cur[0]) + 1)
		bwRows++
		var next []int32
		if i+1 < m.Rows {
			next = m.ColIdx[m.RowPtr[i+1]:m.RowPtr[i+2]]
		}
		for _, c := range next {
			c += NeighborDistance
			mark[c>>6] |= 1 << (c & 63)
		}
		matched, last := 0, cur[0]-NeighborDistance-1
		for _, c := range cur {
			if c-last <= NeighborDistance {
				neigh += 2 // the pair contributes one neighbor to each side
			}
			last = c
			w, s := c>>6, uint(c&63)
			if (mark[w]>>s|mark[w+1]<<(64-s))&window != 0 {
				matched++
			}
		}
		for _, c := range next {
			mark[(c+NeighborDistance)>>6] = 0
		}
		if i+1 < m.Rows {
			simSum += float64(matched) / float64(len(cur))
			simRows++
		}
	}
	avg := fv.AvgNNZPerRow
	fv.SkewCoeff = (float64(maxRow) - avg) / avg
	fv.AvgNumNeigh = float64(neigh) / float64(m.NNZ())
	if simRows > 0 {
		fv.CrossRowSim = simSum / float64(simRows)
	}
	fv.BWScaled = bwSum / float64(bwRows) / float64(m.Cols)
	return fv
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
