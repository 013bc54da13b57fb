package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// TestTuningWideRowMin pins the scalar loops of the vectorized CSR kernels
// on long rows (482..541 entries: every 4-way tail length): they must match
// the reference within the dot product's forward bound — the dispatched
// SIMD path is covered by the equivalence suite — and a default build
// carries no tuning.
func TestTuningWideRowMin(t *testing.T) {
	prev := simd.SetEnabled(false)
	defer simd.SetEnabled(prev)

	sizes := make([]int, 60)
	for i := range sizes {
		sizes[i] = 482 + i
	}
	m := matrix.RandomRowSizes(60, 800, sizes, 61)
	x := matrix.RandomVector(m.Cols, 62)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)

	for _, name := range []string{"Vec-CSR", "MKL-IE"} {
		b, _ := Lookup(name)
		f, err := b.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, m.Rows)
		f.SpMV(x, got)
		if i, ok := equalOrClose(name, m, x, 1, got, want); !ok {
			t.Errorf("%s: %d-entry row %d = %v, reference %v: beyond the forward bound", name, sizes[i], i, got[i], want[i])
		}
	}
	b, _ := Lookup("Vec-CSR")
	if f, _ := b.Build(m); f.(*VecCSR).tune != (Tuning{}) {
		t.Errorf("Vec-CSR's Build carries a non-zero Tuning: %+v", f.(*VecCSR).tune)
	}
}
