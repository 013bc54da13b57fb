package formats

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

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
// the dot product's forward bound. The CSR family also builds every input
// as its widened twin (Cols past narrowMaxCols, x padded with zeros), so
// its int32 path is fuzzed beside its uint16 one. Values and x stay finite: whether ELL's
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
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzCSR(data)
		for _, k := range []int{1, 3} {
			x := matrix.RandomVector(m.Cols*k, int64(k))
			want := multiplyManyWant(m, m.Rows, m.Cols, x, k)
			twin := input{widened(m), padX(m, x, k)}
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
					y := make([]float64, m.Rows*k)
					if err := fm.Apply(context.Background(), y, in.x, k, 2); err != nil {
						t.Fatalf("%s k=%d on %v: %v", b.Name, k, in.m, err)
					}
					if i, ok := m.WithinDotBound(x, k, y, want); !ok {
						t.Fatalf("%s k=%d on %v: y[%d] = %v, the CSR reference's %v", b.Name, k, in.m, i, y[i], want[i])
					}
				}
			}
		}
	})
}
