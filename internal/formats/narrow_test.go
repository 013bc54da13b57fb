package formats

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// csrFamily names the formats that narrow their column indices.
var csrFamily = []string{"Naive-CSR", "Vec-CSR", "Bal-CSR", "MKL-IE", "Merge-CSR"}

// widened is m's twin on the int32 path: the same entries, with Cols
// raised past narrowMaxCols. It multiplies m's x padded with zeros
// (padX).
func widened(m *matrix.CSR) *matrix.CSR {
	w := *m
	w.Cols = narrowMaxCols + 1
	return &w
}

// padX is the k-wide block x of m laid out for m's widened twin: the same
// row-major entries, then zeros for the added columns.
func padX(m *matrix.CSR, x []float64, k int) []float64 {
	xw := make([]float64, (narrowMaxCols+1)*k)
	copy(xw, x[:m.Cols*k])
	return xw
}

// csrPart is the CSR storage of a CSR-family format.
func csrPart(f Format) *CSR {
	switch f := f.(type) {
	case *CSR:
		return f
	case *MergeCSR:
		return &f.csr
	}
	return nil
}

// narrowTestMatrix has 1<<16 columns, an entry in the last one, and rows
// of every length class the kernels branch on (empty, masked short steps,
// group and tail boundaries, one long row), about 12 000 entries: enough
// work for two lanes.
func narrowTestMatrix(t *testing.T) *matrix.CSR {
	t.Helper()
	const rows = 400
	o := matrix.NewCOO(rows, narrowMaxCols, 0)
	s := uint32(7)
	next := func() uint32 { s = s*1664525 + 1013904223; return s >> 8 }
	for i := 0; i < rows; i++ {
		n := []int{0, 1, 2, 3, 5, 8, 9, 16, 17, 33, 70}[i%11]
		if i == 200 {
			n = 3000
		}
		for j := 0; j < n; j++ {
			o.Append(int32(i), int32(next()%narrowMaxCols), float64(int32(next()%2001)-1000)/64)
		}
	}
	o.Append(rows-1, narrowMaxCols-1, 1.5)
	return o.ToCSR()
}

// TestNarrowIndicesBitIdentical: every CSR-family format built on a
// matrix of 1<<16 columns (with an entry in column 65535) stores uint16
// indices and multiplies bit-identically to its int32 twin, the same
// entries with Cols at 65 537 (which builds wide), on every tier the host
// reaches, at k in {1, 2, 3, 4, 5, 8, 9} and on one and two lanes.
func TestNarrowIndicesBitIdentical(t *testing.T) {
	defer simd.SetLevel(simd.SetLevel("scalar"))
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	m := narrowTestMatrix(t)
	w := widened(m)
	for _, level := range []string{"scalar", "avx2", "avx512"} {
		simd.SetLevel(level)
		if level != "scalar" && simd.Level() != level {
			continue // tier not reachable on this host
		}
		for _, name := range csrFamily {
			b, _ := Lookup(name)
			fn, err := b.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			fw, err := b.Build(w)
			if err != nil {
				t.Fatal(err)
			}
			if n, wd := csrPart(fn), csrPart(fw); n.col16 == nil || n.colIdx != nil || wd.col16 != nil || wd.colIdx == nil {
				t.Fatalf("%s: %d columns built narrow=%v, %d columns narrow=%v", name, m.Cols, n.col16 != nil, w.Cols, wd.col16 != nil)
			}
			if got, want := fw.Bytes()-fn.Bytes(), 2*int64(m.NNZ()-simd.U16Slack); got != want {
				t.Errorf("%s: narrow layout saves %d bytes, want 2 per nonzero less the slack (%d)", name, got, want)
			}
			for _, k := range []int{1, 2, 3, 4, 5, 8, 9} {
				x := matrix.RandomVector(m.Cols*k, int64(k))
				xw := padX(m, x, k)
				for _, workers := range []int{1, 2} {
					yn, yw := nanFilled(m.Rows*k), nanFilled(m.Rows*k)
					if err := fn.Apply(context.Background(), yn, x, k, workers); err != nil {
						t.Fatal(err)
					}
					if err := fw.Apply(context.Background(), yw, xw, k, workers); err != nil {
						t.Fatal(err)
					}
					for i := range yn {
						if math.Float64bits(yn[i]) != math.Float64bits(yw[i]) {
							t.Fatalf("%s %s k=%d workers=%d: y[%d] = %v narrow, %v int32", level, name, k, workers, i, yn[i], yw[i])
						}
					}
				}
			}
		}
	}
}
