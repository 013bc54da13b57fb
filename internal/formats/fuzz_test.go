package formats

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// fuzzCSR decodes fuzz bytes into a valid CSR of at most 64x64: data[0]
// and data[1] give the shape (0 to 64 each), and every following group of
// four bytes one entry, at (row, column) with the value mant * 2^(exp-32),
// a signed byte times a power of two. Duplicates add.
func fuzzCSR(data []byte) *matrix.CSR {
	var rows, cols int
	if len(data) >= 2 {
		rows, cols, data = int(data[0])%65, int(data[1])%65, data[2:]
	}
	o := matrix.NewCOO(rows, cols, len(data)/4)
	for ; len(data) >= 4 && rows > 0 && cols > 0; data = data[4:] {
		v := math.Ldexp(float64(int8(data[2])), int(data[3]%64)-32)
		o.Append(int32(int(data[0])%rows), int32(int(data[1])%cols), v)
	}
	return o.ToCSR()
}

// fuzzLanes decodes the lane count, 1 to 7, from the byte fuzzCSR leaves
// over after its last whole entry (1 when none is left).
func fuzzLanes(data []byte) int {
	if len(data) < 2 || (len(data)-2)%4 == 0 {
		return 1
	}
	return 1 + int(data[len(data)-1])%7
}

// fuzzEntries encodes entries for a seed in fuzzCSR's layout.
func fuzzEntries(rows, cols byte, entries ...[4]byte) []byte {
	data := []byte{rows, cols}
	for _, e := range entries {
		data = append(data, e[:]...)
	}
	return data
}

// FuzzBuildersMatchCSR holds every registry builder to the CSR reference on
// arbitrary small matrices: a builder either refuses with ErrBuild, or its
// Apply at k = 1 and k = 3 agrees with the column-wise CSR product within
// the dot product's forward bound, its Apply on the decoded lane count
// (fuzzLanes) is bit-equal to its own on one lane, and the four CSR
// presets are bit-equal to Naive-CSR. The CSR family also builds every input as its widened twin
// (Cols past narrowMaxCols, x padded with zeros), so its int32 path is
// fuzzed beside its uint16 one. Values and x stay finite: whether HYB's
// padding slots (column 0, value 0) may turn an infinite or NaN x[0] into a
// NaN where CSR is finite is a contract not yet decided, so non-finite
// inputs stay out until it is.
func FuzzBuildersMatchCSR(f *testing.F) {
	type input struct {
		m *matrix.CSR
		x []float64
	}
	f.Add([]byte{})                                                        // 0 x 0
	f.Add([]byte{5, 7})                                                    // no entries
	f.Add([]byte{18, 0})                                                   // rows without a column: an x of length 0
	f.Add(fuzzEntries(8, 8, [4]byte{1, 2, 16, 32}, [4]byte{5, 6, 200, 30}, // rows 1 and 5, columns 2 and 6 only
		[4]byte{1, 6, 3, 33}, [4]byte{5, 2, 127, 32}))
	giant := []byte{64, 64} // row 3 holds all 64 columns, the others nothing
	for c := byte(0); c < 64; c++ {
		giant = append(giant, 3, c, c*4+1, 32-c%8)
	}
	f.Add(giant)
	f.Add(fuzzEntries(3, 64, [4]byte{0, 0, 1, 32}, [4]byte{0, 0, 255, 32}, // a cancelling duplicate
		[4]byte{2, 63, 100, 0}, [4]byte{2, 62, 100, 63}))
	f.Add(append(giant, 6)) // the giant row on seven lanes
	f.Fuzz(func(t *testing.T, data []byte) {
		defer exec.SetMaxWorkers(exec.SetMaxWorkers(7))
		m, lanes := fuzzCSR(data), fuzzLanes(data)
		for _, k := range []int{1, 3} {
			x := matrix.RandomVector(m.Cols*k, int64(k))
			want := multiplyManyWant(m, m.Rows, m.Cols, x, k)
			twin := input{widened(m), padX(m, x, k)}
			var naive []float64 // Registry lists Naive-CSR before the other presets
			for _, b := range Registry() {
				ins := []input{{m, x}}
				if slices.Contains(csrFamily, b.Name) {
					ins = append(ins, twin)
				}
				for _, in := range ins {
					fm, err := b.Build(in.m)
					if err != nil {
						if !errors.Is(err, ErrBuild) {
							t.Fatalf("%s on %v: %v, want a format or ErrBuild", b.Name, in.m, err)
						}
						continue
					}
					y, one := make([]float64, m.Rows*k), make([]float64, m.Rows*k)
					if err := fm.Apply(context.Background(), y, in.x, k, lanes); err != nil {
						t.Fatalf("%s k=%d on %v: %v", b.Name, k, in.m, err)
					}
					if i, ok := m.WithinDotBound(x, k, y, want); !ok {
						t.Fatalf("%s k=%d on %v: y[%d] = %v, the CSR reference's %v", b.Name, k, in.m, i, y[i], want[i])
					}
					if err := fm.Apply(context.Background(), one, in.x, k, 1); err != nil {
						t.Fatalf("%s k=%d on %v: %v", b.Name, k, in.m, err)
					}
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(one[i]) {
							t.Fatalf("%s k=%d on %v: y[%d] = %v on %d lanes, %v on one", b.Name, k, in.m, i, y[i], lanes, one[i])
						}
					}
					if !slices.Contains(csrPresets, b.Name) {
						continue
					}
					if naive == nil {
						naive = y
					}
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(naive[i]) {
							t.Fatalf("%s k=%d on %v: y[%d] = %v, Naive-CSR's %v", b.Name, k, in.m, i, y[i], naive[i])
						}
					}
				}
			}
		}
	})
}
