package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// TestTuningWideRowMin pins the Go kernel of MKL-IE, the dispatched CSR
// preset, on long rows (482..541 entries: every 8-way tail length): it
// must match the sequential reference within the dot product's forward
// bound — the dispatched SIMD path is held to the Go kernel bit for bit
// elsewhere.
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

	got := make([]float64, m.Rows)
	newPreset("MKL-IE", m).SpMV(x, got)
	if i, ok := m.WithinDotBound(x, 1, got, want); !ok {
		t.Errorf("%d-entry row %d = %v, reference %v: beyond the forward bound", sizes[i], i, got[i], want[i])
	}
}
