package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// TestTuningWideRowMin pins the Go kernel of the dispatched CSR presets on
// long rows (482..541 entries: every 8-way tail length): they must match
// the sequential reference within the dot product's forward bound — the
// dispatched SIMD path is held to the Go kernel bit for bit elsewhere.
func TestTuningWideRowMin(t *testing.T) {
	defer simd.SetLevel(simd.SetLevel("scalar"))

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
		if i, ok := m.WithinDotBound(x, 1, got, want); !ok {
			t.Errorf("%s: %d-entry row %d = %v, reference %v: beyond the forward bound", name, sizes[i], i, got[i], want[i])
		}
	}
}
