package formats

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// metamorphicKs are the block widths the metamorphic properties run at: a
// single vector, a lane-masked tail alone, and one full 8-wide tile.
var metamorphicKs = []int{1, 3, 8}

// metamorphicMatrices is the engine's test set; -short (the race run)
// leaves out its 360 000-entry generated matrix.
func metamorphicMatrices(t *testing.T) map[string]*matrix.CSR {
	ms := engineTestMatrices(t)
	if testing.Short() {
		delete(ms, "generated")
	}
	return ms
}

// rowsAlone reports whether the rounding contract (multi.go) has every row
// of the named format's k-wide product on workers lanes summed alone, in an
// order fixed by the row's own entries, so a row's bits do not depend on
// where it sits. CSR5 sums by tiles, BCSR pairs rows into blocks, SparseX
// decodes runs that cross rows, and Merge-CSR's merge-path lanes (at every
// k: a block runs by column) and COO's parallel lanes (HYB's spill among
// them) split rows at lane boundaries and add the pieces: they are held to
// the forward bound instead.
func rowsAlone(name string, workers int) bool {
	switch name {
	case "CSR5", "BCSR", "SparseX":
		return false
	case "Merge-CSR", "COO", "HYB":
		return workers == 1
	}
	return true
}

// gridVector returns n values uniform on the multiples of 2^-20 in [-1, 1):
// scaled by powers of two and summed, such vectors combine exactly.
func gridVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Int63n(1<<21)-1<<20) / (1 << 20)
	}
	return v
}

// metamorphicApply runs f's k-wide product on workers lanes into a fresh
// NaN-filled y, so a row left unwritten fails every comparison.
func metamorphicApply(t *testing.T, f Format, x []float64, k, workers int) []float64 {
	t.Helper()
	y := nanFilled(f.Rows() * k)
	if err := f.Apply(context.Background(), y, x, k, workers); err != nil {
		t.Fatalf("%s k=%d workers=%d: %v", f.Name(), k, workers, err)
	}
	return y
}

// TestMetamorphicLinearity: for every registry format at k in {1, 3, 8} on
// one and two lanes, A(αx+βz) agrees with αAx+βAz, each side computed by the
// format itself. x and z lie on a 2^-20 grid and α, β are powers of two, so
// w = αx+βz is exact and the two sides differ only by the kernels' own
// rounding: each is within n*u*sum|a_ij|*(|w_j|+|αx_j|+|βz_j|) of the exact
// product, which is the dot product's forward bound over that magnitude
// vector (matrix.CSR.WithinDotBound).
func TestMetamorphicLinearity(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	const alpha, beta = 2.0, -0.5
	for mname, m := range metamorphicMatrices(t) {
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				continue // refused structure; covered elsewhere
			}
			for _, k := range metamorphicKs {
				x, z := gridVector(m.Cols*k, 41), gridVector(m.Cols*k, 42)
				w, mag := make([]float64, len(x)), make([]float64, len(x))
				for j := range x {
					w[j] = alpha*x[j] + beta*z[j]
					mag[j] = math.Abs(w[j]) + math.Abs(alpha*x[j]) + math.Abs(beta*z[j])
				}
				for _, workers := range []int{1, 2} {
					got := metamorphicApply(t, f, w, k, workers)
					ax, az := metamorphicApply(t, f, x, k, workers), metamorphicApply(t, f, z, k, workers)
					want := make([]float64, len(got))
					for i := range want {
						want[i] = alpha*ax[i] + beta*az[i]
					}
					if i, ok := m.WithinDotBound(mag, k, got, want); !ok {
						t.Fatalf("%s on %s k=%d workers=%d: A(αx+βz)[%d] = %v, αAx+βAz = %v: beyond the forward bound",
							b.Name, mname, k, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMetamorphicRowPermutation: permuting A's rows permutes the product.
// For every registry format at k in {1, 3, 8} on one and two lanes, row i
// of P·A times x is row p(i) of A times x — bit for bit where the rounding
// contract sums each row alone in an order its own entries fix (rowsAlone),
// within the dot product's forward bound elsewhere.
func TestMetamorphicRowPermutation(t *testing.T) {
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(2))
	for mname, m := range metamorphicMatrices(t) {
		perm := rand.New(rand.NewSource(43)).Perm(m.Rows)
		o := matrix.NewCOO(m.Rows, m.Cols, m.NNZ())
		for i, r := range perm {
			cols, vals := m.Row(r)
			for j, c := range cols {
				o.Append(int32(i), c, vals[j])
			}
		}
		pm := o.ToCSR()
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				continue
			}
			pf, err := b.Build(pm)
			if err != nil {
				continue
			}
			for _, k := range metamorphicKs {
				x := matrix.RandomVector(m.Cols*k, int64(44+k))
				for _, workers := range []int{1, 2} {
					y := metamorphicApply(t, f, x, k, workers)
					py := metamorphicApply(t, pf, x, k, workers)
					want := make([]float64, len(py))
					for i, r := range perm {
						copy(want[i*k:(i+1)*k], y[r*k:(r+1)*k])
					}
					if !rowsAlone(b.Name, workers) {
						if i, ok := pm.WithinDotBound(x, k, py, want); !ok {
							t.Fatalf("%s on %s k=%d workers=%d: permuted row %d vector %d = %v, unpermuted %v: beyond the forward bound",
								b.Name, mname, k, workers, i/k, i%k, py[i], want[i])
						}
						continue
					}
					for e := range py {
						if math.Float64bits(py[e]) != math.Float64bits(want[e]) {
							t.Fatalf("%s on %s k=%d workers=%d: permuted row %d vector %d = %v, unpermuted %v",
								b.Name, mname, k, workers, e/k, e%k, py[e], want[e])
						}
					}
				}
			}
		}
	}
}
