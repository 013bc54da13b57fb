package formats

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// csrPresets are the four formats that are one CSR kernel.
var csrPresets = []string{"Naive-CSR", "Vec-CSR", "Bal-CSR", "MKL-IE"}

// canonicalTestMatrix has 1<<16 columns (an entry in the last one) and
// rows of every length class the CSR kernels branch on — empty and
// at most 4 (AVX2's masked step), 5 to 8 (AVX-512's), 9 to 16 (one group
// and a tail), longer ones with every tail length, and one of 3 000 —
// about 40 000 entries: enough work for seven lanes.
func canonicalTestMatrix() *matrix.CSR {
	const rows = 1800
	o := matrix.NewCOO(rows, narrowMaxCols, 0)
	s := uint32(5)
	next := func() uint32 { s = s*1664525 + 1013904223; return s >> 8 }
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15, 16, 17, 23, 31, 40, 64, 97}
	for i := 0; i < rows; i++ {
		n := lens[i%len(lens)]
		if i == 900 {
			n = 3000
		}
		for j := 0; j < n; j++ {
			o.Append(int32(i), int32(next()%narrowMaxCols), float64(int32(next()%4001)-2000)/256)
		}
	}
	o.Append(rows-1, narrowMaxCols-1, 1.5)
	return o.ToCSR()
}

// columnWise is the product of m with each column of the k-wide block x
// as its own vector, through the Go reference at k = 1, laid out k-wide:
// the one answer every canonical path must give.
func columnWise(m *matrix.CSR, x []float64, k int) []float64 {
	want := make([]float64, m.Rows*k)
	xt, yt := make([]float64, m.Cols), make([]float64, m.Rows)
	for t := 0; t < k; t++ {
		for c := range xt {
			xt[c] = x[c*k+t]
		}
		simd.CSRRowRangeGo(m.RowPtr, m.ColIdx, m.Val, xt, yt, 0, m.Rows, 1)
		for i, v := range yt {
			want[i*k+t] = v
		}
	}
	return want
}

// TestCSRPresetsBitIdentical holds the four CSR presets to one answer per
// (matrix, x): on every tier the host reaches (switched with SetLevel),
// at k in {1, 2, 3, 4, 5, 8, 9, 17}, on 1, 2 and 7 lanes, over uint16
// indices and their widened int32 twin, every element of every preset's
// k-wide product is bit-equal to the Go reference's product with that
// column alone.
func TestCSRPresetsBitIdentical(t *testing.T) {
	defer simd.SetLevel(simd.SetLevel("scalar"))
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(7))
	m := canonicalTestMatrix()
	w := widened(m)
	for _, k := range []int{1, 2, 3, 4, 5, 8, 9, 17} {
		x := matrix.RandomVector(m.Cols*k, int64(k))
		xw := padX(m, x, k)
		want := columnWise(m, x, k)
		for _, level := range []string{"scalar", "avx2", "avx512"} {
			simd.SetLevel(level)
			if simd.Level() != level {
				continue // tier not detected on this host
			}
			for _, name := range csrPresets {
				for _, in := range []struct {
					m *matrix.CSR
					x []float64
				}{{m, x}, {w, xw}} {
					b, _ := Lookup(name)
					f, err := b.Build(in.m)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 7} {
						y := nanFilled(m.Rows * k)
						if err := f.Apply(context.Background(), y, in.x, k, workers); err != nil {
							t.Fatal(err)
						}
						for e := range y {
							if math.Float64bits(y[e]) != math.Float64bits(want[e]) {
								t.Fatalf("%s %s k=%d workers=%d cols=%d: row %d (n=%d) vector %d = %v, the column alone %v",
									level, name, k, workers, in.m.Cols, e/k, m.RowPtr[e/k+1]-m.RowPtr[e/k], e%k, y[e], want[e])
							}
						}
					}
				}
			}
		}
	}
}

// TestMultiplyManyColumnIsMultiply is the metamorphic property of the
// k-wide product: for every registry format, at k in {2, 3, 5, 8, 9} (3
// and 9 under -short) and on one and two lanes, column t of Apply's k-wide
// product is bit-equal to Apply's single-vector product of vector t — a
// vector's answer does not depend on what it was batched with.
func TestMultiplyManyColumnIsMultiply(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	ms := engineTestMatrices(t)
	ms["canonical"] = canonicalTestMatrix()
	ks := []int{2, 3, 5, 8, 9}
	if testing.Short() {
		ks = []int{3, 9} // a lane-masked tile and a pass plus one: enough under -race
	}
	for mname, m := range ms {
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				continue // refused structure; covered elsewhere
			}
			for _, k := range ks {
				x := matrix.RandomVector(m.Cols*k, int64(31*k))
				for _, workers := range []int{1, 2} {
					y := nanFilled(m.Rows * k)
					if err := f.Apply(context.Background(), y, x, k, workers); err != nil {
						t.Fatal(err)
					}
					single := make([]float64, m.Rows*k)
					xt, yt := make([]float64, m.Cols), make([]float64, m.Rows)
					for c := 0; c < k; c++ {
						for j := range xt {
							xt[j] = x[j*k+c]
						}
						if err := f.Apply(context.Background(), yt, xt, 1, workers); err != nil {
							t.Fatal(err)
						}
						for i, v := range yt {
							single[i*k+c] = v
						}
					}
					for e := range y {
						if math.Float64bits(y[e]) != math.Float64bits(single[e]) {
							t.Fatalf("%s on %s k=%d workers=%d: row %d vector %d = %v batched, %v alone", b.Name, mname, k, workers, e/k, e%k, y[e], single[e])
						}
					}
				}
			}
		}
	}
}
