package formats_test

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/update"
)

// TestOneColumnBlockIsSpMV: k = 1 is one kernel whatever the entry point. A
// block that happens to be one column wide is the single-vector product —
// MultiplyMany(y, x, 1) is bit-identical to SpMVParallel on the same lane
// budget — for every registry format, bare, behind Auto and behind an
// Updatable with a live overlay, built at the boot cap and run at scalar
// and at it — Vec-CSR and MKL-IE included, whose k = 1 rounding is the
// vectorized loop's at either call.
func TestOneColumnBlockIsSpMV(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(4))
	boot := simd.SetLevel("scalar")
	defer simd.SetLevel(boot)
	simd.SetLevel(boot) // each pass below ends at it, where the next builds

	mats := formats.SIMDEquivMatrices(t)
	mats["tridiagonal"] = matrix.Tridiagonal(3000, 2, -1) // the one DIA accepts
	built := map[string]bool{}
	for mname, m := range mats {
		x := matrix.RandomVector(m.Cols, 97)
		for _, b := range formats.Registry() {
			bare, err := b.Build(m)
			if err != nil {
				continue // DIA refuses the generated pair
			}
			built[b.Name] = true
			u, err := update.New(m, update.Options{Format: b.Name, NoAutoCompact: true})
			if err != nil {
				t.Fatalf("%s/%s: Updatable: %v", mname, b.Name, err)
			}
			for i := 0; i < 40; i++ {
				u.Set((i*131)%m.Rows, (i*71)%m.Cols, float64(i)-19.5)
			}
			for _, f := range []formats.Format{bare, formats.NewAuto(bare, formats.AutoChoice{}), u} {
				for _, lvl := range []string{"scalar", boot} {
					simd.SetLevel(lvl)
					got, want := nanFilled(m.Rows), nanFilled(m.Rows)
					f.MultiplyMany(got, x, 1)
					f.SpMVParallel(x, want, exec.MaxWorkers())
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s/%s cap %s: MultiplyMany(k=1) row %d = %v, SpMVParallel's %v",
								mname, f.Name(), lvl, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	for _, b := range formats.Registry() {
		if !built[b.Name] {
			t.Errorf("%s: no matrix built it", b.Name)
		}
	}
}

func nanFilled(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}
