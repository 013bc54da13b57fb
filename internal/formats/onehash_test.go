package formats_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/update"
)

// TestOneHashPerFormat holds every registry format, and an Updatable whose
// overlay — frozen entries, then active ones — follows a base run on every
// lane count, to one answer per (matrix, x): the same vector in every column of a
// k-wide block, at k in {1, 2, 3, 5, 8, 9}, on 1, 2 and 7 lanes, under
// every tier cap the host reaches and "auto", must give every column one
// y hash — no lane count, tier or batch width moves a bit. The rows of 30
// entries are cut by COO's segments, HYB's spill, Merge-CSR's diagonals
// and CSR5's tile groups, and cluster enough that most 2x2 BCSR blocks
// hold both products of a row. The first product of each subject is also
// held to the CSR reference's forward bound. -short (the race run) keeps
// k in {1, 3, 9}.
func TestOneHashPerFormat(t *testing.T) {
	defer simd.SetLevel(simd.SetLevel("scalar"))
	defer exec.SetMaxWorkers(exec.SetMaxWorkers(7))
	m, err := gen.Generate(gen.Params{Rows: 6000, Cols: 6000, AvgNNZPerRow: 30, StdNNZPerRow: 10,
		SkewCoeff: 5, BWScaled: 0.3, CrossRowSim: 0.6, AvgNumNeigh: 1.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	v := matrix.RandomVector(m.Cols, 42)
	ref := make([]float64, m.Rows)
	m.SpMV(v, ref)
	var subjects []formats.Format
	for _, b := range formats.Registry() {
		f, err := b.Build(m)
		if errors.Is(err, formats.ErrBuild) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, f)
	}
	subjects = append(subjects, frozenOverlay(t, m))
	ks := []int{1, 2, 3, 5, 8, 9}
	if testing.Short() {
		ks = []int{1, 3, 9}
	}
	for _, f := range subjects {
		var first string
		for _, workers := range []int{1, 2, 7} {
			for _, level := range []string{"scalar", "avx2", "avx512", "auto"} {
				simd.SetLevel(level)
				if level != "auto" && simd.Level() != level {
					continue // tier not detected on this host
				}
				for _, k := range ks {
					x := make([]float64, m.Cols*k)
					for c, vc := range v {
						for u := 0; u < k; u++ {
							x[c*k+u] = vc
						}
					}
					y := make([]float64, m.Rows*k)
					for i := range y {
						y[i] = math.NaN()
					}
					if err := f.Apply(context.Background(), y, x, k, workers); err != nil {
						t.Fatal(err)
					}
					for u := 0; u < k; u++ {
						h := sha256.New()
						for i := 0; i < m.Rows; i++ {
							binary.Write(h, binary.LittleEndian, math.Float64bits(y[i*k+u]))
						}
						got := hex.EncodeToString(h.Sum(nil))
						if first != "" {
							if got != first {
								t.Fatalf("%s workers=%d %s k=%d: column %d hashes %.16s, the first %.16s", f.Name(), workers, level, k, u, got, first)
							}
							continue
						}
						first = got
						if _, ok := f.(*update.Updatable); ok {
							continue // its matrix is m plus the overlay
						}
						if i, ok := m.WithinDotBound(v, 1, y, ref); !ok {
							t.Fatalf("%s: y[%d] = %v, the CSR reference's %v", f.Name(), i, y[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// frozenOverlay wraps m's Naive-CSR in an Updatable and leaves it a frozen
// overlay of about 33 000 entries, six to a row, by a compaction whose
// rebuild fails, and then an active log as large, every other entry on a
// frozen cell.
func frozenOverlay(t *testing.T, m *matrix.CSR) *update.Updatable {
	t.Helper()
	b, _ := formats.Lookup("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	u, err := update.Wrap(f, m, update.Options{Format: b.Name, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6*m.Rows; i++ {
		u.Add(i/6, (i*7919)%m.Cols, float64(i%13-6)/8)
	}
	defer failpoint.SetEnabled(failpoint.SetEnabled(true))
	defer failpoint.Disable("update.rebuild")
	if err := failpoint.Enable("update.rebuild", "error*1"); err != nil {
		t.Fatal(err)
	}
	if err := u.Compact(); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Compact with a dying rebuild = %v, want the injected fault", err)
	}
	for i := 0; i < 6*m.Rows; i++ {
		c := (i*104729 + 31) % m.Cols
		if i%2 == 0 {
			c = (i * 7919) % m.Cols // a frozen cell of row i/6
		}
		u.Add(i/6, c, float64(i%11-5)/4)
	}
	if st := u.Stats(); st.FrozenLen == 0 || st.ActiveLen < 7*exec.MinGrain {
		t.Fatalf("overlay frozen=%d active=%d, want frozen entries and seven lanes' active work", st.FrozenLen, st.ActiveLen)
	}
	return u
}
