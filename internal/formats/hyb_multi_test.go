package formats

import (
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// hybTestMatrices spans the spill regimes: balanced (almost no spill),
// moderately and heavily skewed (spill-dominated), plus a matrix small
// enough to take the serial spill path.
func hybTestMatrices(t *testing.T) []*matrix.CSR {
	t.Helper()
	cfgs := []struct {
		rows      int
		avg, skew float64
		seed      int64
	}{
		{4000, 10, 0, 1},
		{4000, 8, 60, 2},
		{3000, 6, 800, 3},
		{50, 4, 3, 4}, // tiny: serial spill add
	}
	var out []*matrix.CSR
	for _, c := range cfgs {
		m, err := gen.Generate(gen.Params{
			Rows: c.rows, Cols: c.rows,
			AvgNNZPerRow: c.avg, StdNNZPerRow: c.avg * 0.4,
			SkewCoeff: c.skew, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8,
			Seed: c.seed,
		})
		if err != nil {
			t.Fatalf("generate %+v: %v", c, err)
		}
		out = append(out, m)
	}
	return out
}

// byColumn runs f's block product through the driver's one-vector-at-a-time
// fallback, the order the fused kernel must reproduce.
func byColumn(t *testing.T, f *HYB, y, x []float64, k int) {
	t.Helper()
	if err := f.byColumn(nil, y, x, k, exec.MaxWorkers()); err != nil {
		t.Fatal(err)
	}
}

// TestHYBMultiplyManyMatchesFallback is the bit-equivalence property test
// for the fused HYB kernel: across matrices and k regimes, the fused
// two-phase (slab + k-wide spill carries) kernel must produce exactly
// the by-column fallback's bits — the spill's segments and carry fold are
// the same at every k, so not even rounding may differ.
func TestHYBMultiplyManyMatchesFallback(t *testing.T) {
	for mi, m := range hybTestMatrices(t) {
		fused, err := newHYB(m)
		if err != nil {
			t.Fatalf("matrix %d: %v", mi, err)
		}
		ref, err := newHYB(m)
		if err != nil {
			t.Fatalf("matrix %d: %v", mi, err)
		}
		for _, k := range []int{1, 2, 4, 8, 17} {
			x := matrix.RandomVector(m.Cols*k, int64(100+mi))
			yFused := make([]float64, m.Rows*k)
			yRef := make([]float64, m.Rows*k)
			fused.MultiplyMany(yFused, x, k)
			byColumn(t, ref, yRef, x, k)
			for i := range yFused {
				if yFused[i] != yRef[i] {
					t.Fatalf("matrix %d k=%d: fused HYB diverges from fallback at %d (row %d, vec %d): %g != %g",
						mi, k, i, i/k, i%k, yFused[i], yRef[i])
				}
			}
		}
	}
}

// TestHYBMultiplyManySpillEdges pins the spill-add edge cases: no spill at
// all (every row fits the slab width) and a spill run crossing many worker
// chunk boundaries (one giant row).
func TestHYBMultiplyManySpillEdges(t *testing.T) {
	// Uniform rows: threshold = mean = exact length, zero spill.
	uniform, err := gen.Generate(gen.Params{
		Rows: 1000, Cols: 1000, AvgNNZPerRow: 8, StdNNZPerRow: 0,
		BWScaled: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := newHYB(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.spillVal) != 0 {
		t.Logf("uniform matrix spilled %d entries (distribution noise)", len(f.spillVal))
	}
	k := 8
	x := matrix.RandomVector(uniform.Cols*k, 5)
	y := make([]float64, uniform.Rows*k)
	f.MultiplyMany(y, x, k)
	ref, _ := newHYB(uniform)
	yRef := make([]float64, uniform.Rows*k)
	byColumn(t, ref, yRef, x, k)
	for i := range y {
		if y[i] != yRef[i] {
			t.Fatalf("uniform k=%d: diverges at %d", k, i)
		}
	}

	// One giant row: its spill run spans many segments, exercising the
	// carry fold across all of them.
	rows := 64
	giantLen := 20000
	rowPtr := make([]int32, rows+1)
	var colIdx []int32
	var val []float64
	for i := 0; i < rows; i++ {
		n := 2
		if i == 0 {
			n = giantLen
		}
		for j := 0; j < n; j++ {
			col := j
			if i > 0 {
				col = (i*7)%1000 + j*1000 // two increasing columns per short row
			}
			colIdx = append(colIdx, int32(col))
			val = append(val, float64(i+j%19)+0.25)
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	m, err := matrix.NewCSR(rows, giantLen, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newHYB(m)
	if err != nil {
		t.Fatal(err)
	}
	gRef, _ := newHYB(m)
	for _, k := range []int{1, 4, 17} {
		x := matrix.RandomVector(m.Cols*k, 11)
		y := make([]float64, m.Rows*k)
		yRef := make([]float64, m.Rows*k)
		g.MultiplyMany(y, x, k)
		byColumn(t, gRef, yRef, x, k)
		for i := range y {
			if y[i] != yRef[i] {
				t.Fatalf("giant-row k=%d: diverges at %d", k, i)
			}
		}
	}
}

// TestHYBMultiplyManyConcurrent drives the fused kernel from concurrent
// goroutines so the held frame's TryLock fallback path runs under -race.
func TestHYBMultiplyManyConcurrent(t *testing.T) {
	m, err := gen.Generate(gen.Params{
		Rows: 8000, Cols: 8000, AvgNNZPerRow: 10, StdNNZPerRow: 4,
		SkewCoeff: 40, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := newHYB(m)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := newHYB(m)
	const k = 4
	x := matrix.RandomVector(m.Cols*k, 33)
	want := make([]float64, m.Rows*k)
	byColumn(t, ref, want, x, k)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, m.Rows*k)
			for it := 0; it < 3; it++ {
				f.MultiplyMany(y, x, k)
			}
			for i := range y {
				if y[i] != want[i] {
					t.Errorf("concurrent fused HYB diverges at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
