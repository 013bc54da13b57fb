package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// TestTuningWideRowMin covers the 8-accumulator scalar path of the
// vectorized CSR kernels: rows on both sides of defaultVecWideRowMin must
// match the reference. The dispatched SIMD path never reads the cutoff, so
// the test pins the scalar loops.
func TestTuningWideRowMin(t *testing.T) {
	prev := simd.SetEnabled(false)
	defer simd.SetEnabled(prev)

	sizes := make([]int, 60)
	for i := range sizes {
		sizes[i] = defaultVecWideRowMin - 30 + i // 482..541: the narrow and the wide path, every tail length
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
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("%s across the wide-row cutoff: diff %g", name, d)
		}
	}
	if f := NewVecCSR(m); f.tune != (Tuning{}) {
		t.Errorf("NewVecCSR carries a non-zero Tuning: %+v", f.tune)
	}
}

// TestFusedMultiTableMatchesKernels keeps the hand-written fusedMulti name
// table (read by the device model before any instance exists) honest: it
// must name exactly the formats whose kernels are bound as fused.
func TestFusedMultiTableMatchesKernels(t *testing.T) {
	m := matrix.Tridiagonal(64, 2, -1) // every builder accepts it
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fused := f.(interface{ fusedKernel() bool }).fusedKernel()
		if fused != FusedMulti(b.Name) {
			t.Errorf("%s: kernel bound fused = %v, FusedMulti table says %v", b.Name, fused, FusedMulti(b.Name))
		}
	}
}
