package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// TestTuningWideRowMin covers the wide-row build input of the vectorized
// CSR kernels: lowering the cutoff through Tuning must route mid-length
// rows through the 8-accumulator scalar path without changing the result,
// and the zero Tuning must keep the default. The dispatched SIMD path
// never reads the cutoff, so the test pins the scalar loops.
func TestTuningWideRowMin(t *testing.T) {
	prev := simd.SetEnabled(false)
	defer simd.SetEnabled(prev)

	// Rows of length 8..~70 all take the wide path at cutoff 8.
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = 8 + i%64
	}
	m := matrix.RandomRowSizes(300, 500, sizes, 61)
	x := matrix.RandomVector(m.Cols, 62)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)

	for _, name := range []string{"Vec-CSR", "MKL-IE"} {
		b, _ := Lookup(name)
		for _, cut := range []int{0, 8} {
			f, err := b.BuildTuned(m, Tuning{WideRowMin: cut})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, m.Rows)
			f.SpMV(x, got)
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Errorf("%s with WideRowMin %d: diff %g", name, cut, d)
			}
		}
	}
	if f := newVecCSR(m, Tuning{WideRowMin: 8}); f.tune.WideRowMin != 8 {
		t.Errorf("Tuning did not reach the instance: %+v", f.tune)
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
