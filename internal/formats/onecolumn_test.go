package formats

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
)

// TestOneColumnBlockKeepsSequentialSum pins the one place a legacy delegate
// is not Apply verbatim: on the formats whose single-vector loop
// reassociates (Vec-CSR, MKL-IE), bare and behind Auto, MultiplyMany at
// k = 1 must keep the fused tile's sequential row sum — Naive-CSR's bits,
// on every dispatch tier — while SpMV keeps the vectorized loop.
func TestOneColumnBlockKeepsSequentialSum(t *testing.T) {
	prev := simd.SetEnabled(true)
	defer simd.SetEnabled(prev)

	sizes := make([]int, 700)
	for i := range sizes {
		sizes[i] = 8 + i%64 // long enough to take the dispatched row kernel
	}
	m := matrix.RandomRowSizes(700, 650, sizes, 5)
	x := matrix.RandomVector(m.Cols, 97)
	want := make([]float64, m.Rows)
	NewCSR(m).SpMV(x, want)

	for _, name := range []string{"Vec-CSR", "MKL-IE"} {
		b, _ := Lookup(name)
		bare, err := b.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Format{bare, NewAuto(bare, AutoChoice{})} {
			for _, on := range []bool{true, false} {
				simd.SetEnabled(on)
				got := nanFilled(m.Rows)
				f.MultiplyMany(got, x, 1)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s simd=%v: MultiplyMany(k=1) row %d = %v, want Naive-CSR's %v", f.Name(), on, i, got[i], want[i])
					}
				}
			}
			simd.SetEnabled(true)
		}
	}
}
