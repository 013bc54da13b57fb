package formats

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/simd"
	"repro/internal/testutil"
)

// multiKs are the block widths the MultiplyMany property tests sweep: 1
// (degenerate), every tail size (2, 3), the register-tile width (4), tile
// plus tail (5), the benchmark width (8), and a prime past two tiles (17).
var multiKs = []int{1, 2, 3, 4, 5, 8, 17}

// multiplyManyWant is the specification: k independent Multiply calls
// through the format's own serial kernel, gathered from / scattered to the
// row-major block layout (testutil.MultiplyManyWant, shared with the
// updatable-matrix suite).
func multiplyManyWant(f Format, rows, cols int, x []float64, k int) []float64 {
	return testutil.MultiplyManyWant(f, rows, cols, x, k)
}

// degenerateMatrices are the empty and near-empty shapes every format must
// survive: no nonzeros, single entries, and empty-row runs at the edges.
func degenerateMatrices() map[string]*matrix.CSR { return testutil.Degenerate() }

// TestMultiplyManyEquivalence is the tentpole correctness property: for
// every registry format, MultiplyMany must equal k independent Multiply
// calls (within FP-reassociation tolerance) for every k in multiKs, on the
// engine test matrices — large enough that the parallel fused kernels
// genuinely dispatch — and on empty/degenerate shapes.
func TestMultiplyManyEquivalence(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)

	ms := engineTestMatrices(t)
	for name, m := range degenerateMatrices() {
		ms[name] = m
	}
	for name, m := range ms {
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, ErrBuild) {
					continue
				}
				t.Fatalf("%s on %s: %v", b.Name, name, err)
			}
			for _, k := range multiKs {
				x := matrix.RandomVector(m.Cols*k, int64(13*k)+7)
				want := multiplyManyWant(f, m.Rows, m.Cols, x, k)
				got := make([]float64, m.Rows*k)
				for i := range got {
					got[i] = math.NaN() // every slot must be written
				}
				// Twice: the second call runs on the cached plan.
				f.MultiplyMany(got, x, k)
				f.MultiplyMany(got, x, k)
				if d := maxAbsDiff(got, want); d > 1e-8 || anyNaN(got) {
					t.Errorf("%s on %s with k=%d: differs from %d sequential calls by %g (NaN=%v)",
						b.Name, name, k, k, d, anyNaN(got))
				}
			}
		}
	}
}

// TestMultiplyManyShardedEquivalence is the gang-path property: with
// several shards and a worker cap wide enough that a fused call must
// gang-schedule (domain-split plans, offset-dispatched id blocks), every
// format still matches the sequential specification.
func TestMultiplyManyShardedEquivalence(t *testing.T) {
	prev := exec.SetMaxWorkers(32)
	defer exec.SetMaxWorkers(prev)
	setShards(t, 3)
	exec.Prestart()

	const k = 8
	for name, m := range engineTestMatrices(t) {
		x := matrix.RandomVector(m.Cols*k, 177)
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, ErrBuild) {
					continue
				}
				t.Fatalf("%s on %s: %v", b.Name, name, err)
			}
			want := multiplyManyWant(f, m.Rows, m.Cols, x, k)
			got := make([]float64, m.Rows*k)
			for i := range got {
				got[i] = math.NaN()
			}
			f.MultiplyMany(got, x, k)
			f.MultiplyMany(got, x, k)
			if d := maxAbsDiff(got, want); d > 1e-8 || anyNaN(got) {
				t.Errorf("%s on %s ganged over 3 shards with k=%d: diff %g (NaN=%v)",
					b.Name, name, k, d, anyNaN(got))
			}
		}
	}
}

// TestMultiplyManyConcurrentCallers drives the contention path through the
// sharded engine: several goroutines issue MultiplyMany on one format
// instance with distinct outputs and distinct k. Calls that lose the
// plan's TryLock must fall back to private k-wide scratch and still be
// correct; with -race this also proves the cached carry buffers are never
// shared across in-flight calls.
func TestMultiplyManyConcurrentCallers(t *testing.T) {
	prev := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prev)
	setShards(t, 2)
	exec.Prestart()

	m := matrix.RandomRowSizes(20000, 20000, skewedSizes(20000, 400), 91)
	// COO carries k-wide scratch; CSR and SELL-C-s cover the scratch-free
	// fused paths.
	for _, name := range []string{"COO", "Naive-CSR", "SELL-C-s"} {
		b, _ := Lookup(name)
		f, err := b.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for gi := 0; gi < 8; gi++ {
			k := []int{3, 8}[gi%2] // distinct widths contend on one plan's scratch
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				x := matrix.RandomVector(m.Cols*k, int64(100+k))
				want := multiplyManyWant(f, m.Rows, m.Cols, x, k)
				y := make([]float64, m.Rows*k)
				for i := 0; i < 6; i++ {
					f.MultiplyMany(y, x, k)
					if d := maxAbsDiff(y, want); d > 1e-8 {
						errs <- name
						return
					}
				}
			}(k)
		}
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Errorf("%s: concurrent MultiplyMany diverged from sequential calls", name)
		}
	}
}

// TestQuickMultiplyMany: for arbitrary small random matrices and widths,
// the fused kernels agree with the sequential specification. Complements
// the fixed-k sweep with randomized shapes (including very sparse ones
// with many empty rows).
func TestQuickMultiplyMany(t *testing.T) {
	prevW := exec.SetMaxWorkers(8)
	defer exec.SetMaxWorkers(prevW)
	fn := func(seed uint32, rowsRaw, kRaw uint8) bool {
		rows := int(rowsRaw%60) + 1
		k := int(kRaw%9) + 1
		m := matrix.Random(rows, rows+3, 0.1, int64(seed))
		x := matrix.RandomVector(m.Cols*k, int64(seed)+2)
		for _, name := range []string{"COO", "Naive-CSR", "Bal-CSR", "ELL", "SELL-C-s", "BCSR", "Merge-CSR"} {
			b, _ := Lookup(name)
			f, err := b.Build(m)
			if err != nil {
				continue
			}
			want := multiplyManyWant(f, m.Rows, m.Cols, x, k)
			got := make([]float64, m.Rows*k)
			f.MultiplyMany(got, x, k)
			if maxAbsDiff(got, want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMultiplyManyShapePanics: wrong block shapes and k < 1 are programmer
// errors and must panic, like the single-vector kernels.
func TestMultiplyManyShapePanics(t *testing.T) {
	m := matrix.Tridiagonal(100, 2, -1)
	f := NewCSR(m)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("k=0", func() { f.MultiplyMany(make([]float64, 0), make([]float64, 0), 0) })
	mustPanic("short x", func() { f.MultiplyMany(make([]float64, 200), make([]float64, 199), 2) })
	mustPanic("short y", func() { f.MultiplyMany(make([]float64, 199), make([]float64, 200), 2) })
}

// TestBcastRowMatchesSequentialSum holds the one fused row ladder to its
// definition, bit for bit: each element is the sequential mul-then-add sum
// over the row's strided entries, whichever rung a tile lands on — every
// stride a caller passes (1: CSR; 3: a SELL chunk; 70: an ELL slab of 70
// rows), row lengths on both sides of simdMinN and of the kernels' unroll,
// every tile-plus-tail split of k, wide and narrow, dispatched and not, on
// every tier the host reaches. The row starts at offset 2 and val and col
// end at its last entry, so a read past either end shows. n = 0 is the
// width-0 SELL chunk at the end of the slabs: its offset is past the arrays
// — nothing to slice, k zeros to write.
func TestBcastRowMatchesSequentialSum(t *testing.T) {
	defer simd.SetLevel(simd.SetLevel("scalar"))
	const cols, at, yAt = 50, 2, 3
	for _, level := range []string{"scalar", "avx2", "avx512"} {
		simd.SetLevel(level)
		if level != "scalar" && simd.Level() == "scalar" {
			continue // no accelerated tier on this host
		}
		for _, stride := range []int{1, 3, 70} {
			for _, n := range []int{0, 1, 7, 8, 9, 65} {
				var val []float64
				var col []int32
				if n > 0 {
					val = matrix.RandomVector(at+(n-1)*stride+1, int64(n))
					col = make([]int32, len(val))
					for j := range col {
						col[j] = int32((j*7 + n) % cols)
					}
				}
				for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
					x := matrix.RandomVector(cols*k, int64(k))
					want := nanFilled(yAt + k + 1) // the row's k elements and nothing around them
					for u := 0; u < k; u++ {
						want[yAt+u] = 0
						for j := 0; j < n; j++ {
							want[yAt+u] += val[at+j*stride] * x[int(col[at+j*stride])*k+u]
						}
					}
					for _, mode := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
						l := ladder{val: val, col: col, x: x, y: nanFilled(len(want)), stride: stride, k: k, wide: mode[0], useSIMD: mode[1]}
						l.bcastRow(yAt, at, n)
						for u := range want {
							if l.y[u] != want[u] && !(math.IsNaN(l.y[u]) && math.IsNaN(want[u])) {
								t.Fatalf("%s stride=%d n=%d k=%d wide=%v simd=%v: y[%d] = %v, sequential sum %v",
									simd.Level(), stride, n, k, mode[0], mode[1], u, l.y[u], want[u])
							}
						}
					}
				}
			}
		}
	}
}
