package update

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// mutateRandomly drives n random Set/Add/Delete operations through u and a
// dense mirror in lockstep, mid-way forcing one compaction so the sequence
// exercises base, frozen overlay, and active log together.
func mutateRandomly(t *testing.T, u *Updatable, dense [][]float64, rng *rand.Rand, n int) {
	t.Helper()
	rows, cols := len(dense), len(dense[0])
	for i := 0; i < n; i++ {
		r, c := rng.Intn(rows), rng.Intn(cols)
		// Eighths-of-integers values keep every float64 sum exact, so the
		// mirror and the fused pass agree bit-for-bit where tolerances allow.
		v := float64(rng.Intn(64)-32) / 8
		switch rng.Intn(4) {
		case 0, 1:
			u.Set(r, c, v)
			dense[r][c] = v
		case 2:
			u.Add(r, c, v)
			dense[r][c] += v
		default:
			u.Delete(r, c)
			dense[r][c] = 0
		}
		if i == n/2 {
			if err := u.Compact(); err != nil {
				t.Fatalf("mid-sequence Compact: %v", err)
			}
		}
	}
}

// checkAgainstDense compares every multiply entry point of u with the
// dense oracle product.
func checkAgainstDense(t *testing.T, label string, u *Updatable, dense [][]float64, ks []int) {
	t.Helper()
	rows, cols := len(dense), len(dense[0])
	x := matrix.RandomVector(cols, 1000)
	want := make([]float64, rows)
	for r := 0; r < rows; r++ {
		var acc float64
		for c := 0; c < cols; c++ {
			acc += dense[r][c] * x[c]
		}
		want[r] = acc
	}
	got := make([]float64, rows)
	u.SpMV(x, got)
	if d := testutil.MaxAbsDiff(got, want); d > testutil.TolEngine {
		t.Errorf("%s: serial SpMV differs from dense oracle by %g", label, d)
	}
	for i := range got {
		got[i] = 0
	}
	u.SpMVParallel(x, got, 8)
	if d := testutil.MaxAbsDiff(got, want); d > testutil.TolEngine {
		t.Errorf("%s: parallel SpMV differs from dense oracle by %g", label, d)
	}
	for _, k := range ks {
		xk := matrix.RandomVector(cols*k, int64(2000+k))
		wantk := make([]float64, rows*k)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				v := dense[r][c]
				if v == 0 {
					continue
				}
				for tt := 0; tt < k; tt++ {
					wantk[r*k+tt] += v * xk[c*k+tt]
				}
			}
		}
		gotk := make([]float64, rows*k)
		u.MultiplyMany(gotk, xk, k)
		if d := testutil.MaxAbsDiff(gotk, wantk); d > testutil.TolEngine {
			t.Errorf("%s: MultiplyMany k=%d differs from dense oracle by %g", label, k, d)
		}
	}
}

func denseOf(m *matrix.CSR) [][]float64 {
	d := make([][]float64, m.Rows)
	for r := range d {
		d[r] = make([]float64, m.Cols)
		cols, vals := m.Row(r)
		for i, c := range cols {
			d[r][int(c)] += vals[i]
		}
	}
	return d
}

// TestUpdatableMatchesDenseOracle is the core equivalence property: after
// an arbitrary update sequence — spanning a forced mid-sequence compaction
// — every multiply entry point of every base format agrees with a dense
// mirror of the same sequence, for k in {1, 4, 8}.
func TestUpdatableMatchesDenseOracle(t *testing.T) {
	mats := map[string]*matrix.CSR{
		"random":    matrix.Random(200, 180, 0.05, 3),
		"banded":    matrix.Tridiagonal(150, 2, -1),
		"emptyrows": testutil.WithEmptyRows(t),
	}
	ks := []int{1, 4, 8}
	for mname, m := range mats {
		for _, b := range formats.Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, formats.ErrBuild) {
					continue // dense-slab formats may legitimately refuse
				}
				t.Fatalf("%s on %s: %v", b.Name, mname, err)
			}
			u, err := Wrap(f, m, Options{Format: b.Name, Shards: 4, NoAutoCompact: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, mname, err)
			}
			dense := denseOf(m)
			rng := rand.New(rand.NewSource(int64(len(mname)*1000 + len(b.Name))))
			mutateRandomly(t, u, dense, rng, 300)
			checkAgainstDense(t, b.Name+" on "+mname, u, dense, ks)
		}
	}
}

// TestCompactBitwiseMatchesFreshBuild pins the compaction contract: after
// folding the whole overlay, the Updatable is exactly a fresh build of its
// merged matrix — bitwise for deterministic kernels, reassociation
// tolerance for the two tree-reducing ones.
func TestCompactBitwiseMatchesFreshBuild(t *testing.T) {
	m := matrix.Random(300, 300, 0.04, 17)
	for _, b := range formats.Registry() {
		f, err := b.Build(m)
		if err != nil {
			if errors.Is(err, formats.ErrBuild) {
				continue
			}
			t.Fatalf("%s: %v", b.Name, err)
		}
		u, err := Wrap(f, m, Options{Format: b.Name, NoAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		dense := denseOf(m)
		rng := rand.New(rand.NewSource(int64(len(b.Name))))
		mutateRandomly(t, u, dense, rng, 400)
		if err := u.Compact(); err != nil {
			t.Fatalf("%s: Compact: %v", b.Name, err)
		}
		st := u.Stats()
		if st.FrozenLen != 0 || st.ActiveLen != 0 {
			t.Fatalf("%s: overlay not empty after Compact: frozen=%d active=%d",
				b.Name, st.FrozenLen, st.ActiveLen)
		}
		// Rebuild the merged matrix from scratch through the same builder
		// the compactor used (it may have fallen back to Naive-CSR).
		merged := u.BaseMatrix()
		fb, ok := formats.Lookup(u.Base().Name())
		if !ok {
			t.Fatalf("%s: base %q not in registry", b.Name, u.Base().Name())
		}
		fresh, err := fb.Build(merged)
		if err != nil {
			t.Fatalf("%s: fresh build of merged matrix: %v", b.Name, err)
		}
		x := matrix.RandomVector(m.Cols, 4242)
		got := make([]float64, m.Rows)
		want := make([]float64, m.Rows)
		u.SpMV(x, got)
		fresh.SpMV(x, want)
		if i, ok := testutil.EqualOrClose(u.Base().Name(), merged, x, 1, got, want); !ok {
			t.Errorf("%s: post-Compact SpMV differs from fresh build at row %d: %g vs %g",
				b.Name, i, got[i], want[i])
		}
		if u.NNZ() != fresh.NNZ() {
			t.Errorf("%s: post-Compact NNZ %d != fresh %d", b.Name, u.NNZ(), fresh.NNZ())
		}
	}
}

// TestUpdatableAccessors covers the small introspection surface.
func TestUpdatableAccessors(t *testing.T) {
	m := matrix.Tridiagonal(64, 2, -1)
	u, err := New(m, Options{Format: "Naive-CSR", NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.Name() != "Updatable[Naive-CSR]" {
		t.Errorf("Name() = %q", u.Name())
	}
	if u.Rows() != 64 || u.Cols() != 64 {
		t.Errorf("shape %dx%d", u.Rows(), u.Cols())
	}
	if u.NNZ() != int64(m.NNZ()) {
		t.Errorf("NNZ %d != %d", u.NNZ(), m.NNZ())
	}
	if u.Bytes() <= 0 {
		t.Error("Bytes() not positive")
	}
	if u.Epoch() != 0 {
		t.Errorf("fresh epoch %d", u.Epoch())
	}
	if got := u.At(0, 0); got != 2 {
		t.Errorf("At(0,0) = %g, want 2", got)
	}
	u.Set(0, 1, 9)
	if got := u.At(0, 1); got != 9 {
		t.Errorf("At(0,1) after Set = %g", got)
	}
	u.Add(0, 1, 1)
	if got := u.At(0, 1); got != 10 {
		t.Errorf("At(0,1) after Add = %g", got)
	}
	u.Delete(0, 1)
	if got := u.At(0, 1); got != 0 {
		t.Errorf("At(0,1) after Delete = %g", got)
	}
	st := u.Stats()
	if st.BaseFormat != "Naive-CSR" || st.Updates == 0 {
		t.Errorf("Stats = %+v", st)
	}
	if _, err := New(m, Options{Format: "no-such-format"}); err == nil {
		t.Error("unknown format accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range Set did not panic")
			}
		}()
		u.Set(64, 0, 1)
	}()
}
