package formats

import (
	"context"
	"time"

	"repro/internal/matrix"
	"repro/internal/measure"
)

// KernelClass names the single-vector inner loop a format runs: a trait
// (Traits.Class — formats that share a loop are priced alike) and the index
// of a device model's in-core rate table (device.Spec.ClassRate).
type KernelClass uint8

// The kernel classes.
const (
	ClassNone      KernelClass = iota
	ClassRowSum                // mergeUnit: one dependent FP add per nonzero
	ClassDotGo                 // simd.CSRRowRangeGo: the canonical CSR order in Go, eight math.FMA chains
	ClassDotGather             // simd.CSRRowRange: that order dispatched (the Go one on the scalar tier)
	ClassSweep                 // HYB.sweep (the FPGA's VSL streams, priced only): an axpy per slab column
	ClassLanes                 // SELLCS.chunkRange: C independent lane sums per chunk
	ClassBlock                 // BCSR.blockRowColumn: dense blocks, no per-element index
	ClassTile                  // CSR5's flag-segmented tile
	ClassEntry                 // COO.apply, SparseX's unit decode: a row index or header read per entry
	NumClasses
)

// classRep is the registered format whose k = 1 kernel is each class's loop
// and nothing else: MeasureClasses times it (Merge-CSR on one lane: its
// diagonals in sequence, a carry slot per diagonal; HYB on the fixture's
// equal rows: its threshold is their length, so its spill is empty).
var classRep = [NumClasses]string{"", "Merge-CSR", "Naive-CSR", "Vec-CSR", "HYB", "SELL-C-s", "BCSR", "CSR5", "COO"}

// Vectorized reports whether the loop is laid out for SIMD (gathers,
// column-major chunks, unrolled tiles).
func (c KernelClass) Vectorized() bool { return c > ClassDotGo && c < ClassEntry }

// The class-timing fixture is 64 rows of 64 entries (50 KB of CSR, a 2 KB x:
// cache-resident), row pairs sharing their column pairs so that every format
// builds without padding. The classes are timed in one measure.Compare of
// classRounds rounds of at least classMinTime each, a few kernel calls:
// enough for the clock, and seven builds with their rounds fit the
// millisecond or two a process's first device.HostSpec can be charged.
const (
	classRows    = 64
	classRowNNZ  = 64
	classRounds  = 8
	classMinTime = 5 * time.Microsecond
)

// MeasureClasses times every kernel class on the calling goroutine, one
// lane, and returns the nanoseconds each pays per stored entry under the
// SIMD tier now active. Callers that need the table twice keep it.
func MeasureClasses() (ns [NumClasses]float64) {
	const nnz = classRows * classRowNNZ
	m := &matrix.CSR{Rows: classRows, Cols: 4 * classRowNNZ, RowPtr: make([]int32, classRows+1),
		ColIdx: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	for i := 0; i < classRows; i++ {
		for j := 0; j < classRowNNZ/2; j++ {
			// One column pair in every window of four, at an offset that
			// wanders with the row pair: ascending, never regular.
			c := int32(8*j + 2*((i/2*5+j*3)%4))
			m.ColIdx = append(m.ColIdx, c, c+1)
			m.Val = append(m.Val, 1+0.25*float64(j%7), 0.5+0.125*float64(i%5))
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	x, y := matrix.RandomVector(m.Cols, 1), make([]float64, m.Rows)
	fns := make([]func() error, 0, NumClasses-1)
	for c := ClassNone + 1; c < NumClasses; c++ {
		b, _ := Lookup(classRep[c])
		f, err := b.Build(m)
		if err != nil {
			panic("formats: class fixture refused by " + classRep[c] + ": " + err.Error())
		}
		fns = append(fns, func() error { f.SpMV(x, y); return nil })
	}
	// Interleaved rounds (each led by a call that brings the class's arrays
	// back in core): a slow spell of the machine costs every class a round,
	// not one class all of them, and the table keeps its proportions.
	res, _ := measure.Compare(context.Background(), fns, classRounds, classMinTime) // nothing fails or cancels
	for i, r := range res {
		ns[i+1] = r.MinNs / nnz
	}
	return ns
}
