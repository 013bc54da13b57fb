package formats

import (
	"math"
	"time"

	"repro/internal/matrix"
)

// KernelClass names the single-vector inner loop a format runs: a trait
// (Traits.Class — formats that share a loop are priced alike) and the index
// of a device model's in-core rate table (device.Spec.ClassRate).
type KernelClass uint8

// The kernel classes.
const (
	ClassNone      KernelClass = iota
	ClassRowSum                // csrRowRange, MergeCSR.lane: one dependent FP add per nonzero
	ClassDotGather             // vecCSRRowRange: simd.CSRRowRange, or four accumulators on the scalar tier
	ClassSweep                 // ELL.rowRange (HYB; the FPGA's VSL streams, priced only): an axpy per slab column
	ClassLanes                 // SELLCS.chunkRange: C independent lane sums per chunk
	ClassBlock                 // BCSR.blockRowRange: dense blocks, no per-element index
	ClassTile                  // CSR5's flag-segmented tile
	ClassEntry                 // COO.apply, SparseX's unit decode: a row index or header read per entry
	NumClasses
)

// classRep is the registered format whose k = 1 kernel is each class's loop
// and nothing else: MeasureClasses times it.
var classRep = [NumClasses]string{"", "Naive-CSR", "Vec-CSR", "ELL", "SELL-C-s", "BCSR", "CSR5", "COO"}

// Vectorized reports whether the loop is laid out for SIMD (gathers,
// column-major chunks, unrolled tiles).
func (c KernelClass) Vectorized() bool { return c > ClassRowSum && c < ClassEntry }

// The class-timing fixture is 64 rows of 64 entries (50 KB of CSR, a 2 KB x:
// cache-resident), row pairs sharing their column pairs so that every format
// builds without padding. A timed round is classPasses kernel calls, a few
// microseconds: enough for the clock, and seven builds with their rounds
// fit the millisecond a process's first device.HostSpec can be charged.
const (
	classRows   = 64
	classRowNNZ = 64
	classSweeps = 4 // times the classes are gone over, one timed round each; the best counts
	classPasses = 4 // kernel calls per round
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
	var reps [NumClasses]Format
	for c := ClassNone + 1; c < NumClasses; c++ {
		b, _ := Lookup(classRep[c])
		f, err := b.Build(m)
		if err != nil {
			panic("formats: class fixture refused by " + classRep[c] + ": " + err.Error())
		}
		reps[c], ns[c] = f, math.Inf(1)
	}
	// The classes are gone over classSweeps times, a warm-up pass (the rate
	// is the in-core one: arrays hot in L1) and one timed round each: a slow
	// spell of the machine costs every class a round, not one class all of
	// them, and the table keeps its proportions. The best round counts:
	// noise only ever inflates one.
	for sweep := 0; sweep < classSweeps; sweep++ {
		for c := ClassNone + 1; c < NumClasses; c++ {
			reps[c].SpMV(x, y)
			t0 := time.Now()
			for p := 0; p < classPasses; p++ {
				reps[c].SpMV(x, y)
			}
			ns[c] = min(ns[c], float64(time.Since(t0))/float64(classPasses*nnz))
		}
	}
	return ns
}
