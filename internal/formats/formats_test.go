package formats

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/testutil"
)

// The matrix generators and comparison helpers live in internal/testutil —
// the shared randomized-equivalence harness — with thin aliases here so
// every test file in the package reads the same as before the extraction.
func testMatrices(t *testing.T) map[string]*matrix.CSR { return testutil.Matrices(t) }

func skewedSizes(rows, max int) []int { return testutil.SkewedSizes(rows, max) }

func uniformSizes(rows, n int) []int { return testutil.UniformSizes(rows, n) }

var (
	maxAbsDiff = testutil.MaxAbsDiff
	anyNaN     = testutil.AnyNaN
)

// TestAllFormatsMatchReference is the central correctness property: every
// registered format must reproduce the CSR reference product, serially and
// with several worker counts.
func TestAllFormatsMatchReference(t *testing.T) {
	mats := testMatrices(t)
	for name, m := range mats {
		x := matrix.RandomVector(m.Cols, 1000)
		// Dense-reference compare: the oracle multiplies through the dense
		// triple loop, so no sparse kernel is trusted on either side.
		want := testutil.Reference(m, x)
		for _, b := range Registry() {
			f, err := b.Build(m)
			if err != nil {
				if errors.Is(err, ErrBuild) {
					continue // dense-slab formats may legitimately refuse
				}
				t.Fatalf("%s on %s: %v", b.Name, name, err)
			}
			if f.Rows() != m.Rows || f.Cols() != m.Cols || f.NNZ() != int64(m.NNZ()) {
				t.Errorf("%s on %s: shape/nnz mismatch", b.Name, name)
			}
			got := make([]float64, m.Rows)
			f.SpMV(x, got)
			if d := maxAbsDiff(got, want); d > testutil.TolSmall {
				t.Errorf("%s on %s: serial SpMV differs by %g", b.Name, name, d)
			}
			for _, workers := range []int{2, 3, 8, 64} {
				for i := range got {
					got[i] = math.NaN() // ensure every row is written
				}
				f.SpMVParallel(x, got, workers)
				if d := maxAbsDiff(got, want); d > testutil.TolSmall || anyNaN(got) {
					t.Errorf("%s on %s with %d workers: parallel SpMV differs by %g",
						b.Name, name, workers, d)
				}
			}
		}
	}
}

func TestRegistryNamesUniqueAndLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Registry() {
		if seen[b.Name] {
			t.Errorf("duplicate format name %q", b.Name)
		}
		seen[b.Name] = true
		got, ok := Lookup(b.Name)
		if !ok || got.Name != b.Name {
			t.Errorf("Lookup(%q) failed", b.Name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

func TestFormatNamesMatchBuilders(t *testing.T) {
	m := matrix.Random(30, 30, 0.2, 8)
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if f.Name() != b.Name {
			t.Errorf("builder %q produced format named %q", b.Name, f.Name())
		}
	}
}

func TestBytesPositiveAndOrdered(t *testing.T) {
	m := matrix.Random(100, 100, 0.1, 9)
	csrBytes := int64(m.NNZ())*12 + int64(m.Rows+1)*4
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			continue
		}
		if f.Bytes() <= 0 {
			t.Errorf("%s: nonpositive Bytes %d", b.Name, f.Bytes())
		}
		if f.Name() == "Naive-CSR" && f.Bytes() != csrBytes {
			t.Errorf("CSR Bytes = %d, want %d", f.Bytes(), csrBytes)
		}
	}
}

func TestELLPaddingAndRejection(t *testing.T) {
	// Balanced matrix: no padding beyond the max row.
	m := matrix.RandomRowSizes(50, 100, uniformSizes(50, 4), 10)
	f, err := NewELL(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.Width() != 4 {
		t.Errorf("ELL width = %d, want 4", f.Width())
	}
	if tr := f.Traits(); tr.PaddingRatio != 0 {
		t.Errorf("balanced ELL padding = %g, want 0", tr.PaddingRatio)
	}

	// Skewed matrix: padding ratio equals skew.
	sk := matrix.RandomRowSizes(64, 1000, skewedSizes(64, 640), 11)
	fs, err := NewELL(sk)
	if err != nil {
		t.Fatal(err)
	}
	nnz := float64(sk.NNZ())
	wantPad := (float64(64*640) - nnz) / nnz
	if tr := fs.Traits(); math.Abs(tr.PaddingRatio-wantPad) > 1e-9 {
		t.Errorf("skewed ELL padding = %g, want %g", tr.PaddingRatio, wantPad)
	}

	// Pathological matrix: must refuse to build.
	huge := matrix.NewCOO(1<<20, 1<<20, 2)
	huge.Append(0, 0, 1)
	for c := int32(0); c < 1000; c++ {
		huge.Append(5, c, 1)
	}
	if _, err := NewELL(huge.ToCSR()); !errors.Is(err, ErrBuild) {
		t.Errorf("ELL accepted a pathological matrix: %v", err)
	}
}

func TestHYBSplit(t *testing.T) {
	// Rows of size 2 with one size-20 row, threshold defaults near avg=2.
	sizes := uniformSizes(50, 2)
	sizes[7] = 20
	m := matrix.RandomRowSizes(50, 100, sizes, 12)
	f, err := NewHYB(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.SpillNNZ() == 0 {
		t.Error("HYB spill empty despite a long row")
	}
	if f.SpillNNZ() >= int64(m.NNZ()) {
		t.Error("HYB spilled everything")
	}
	// Explicit threshold 0 spills all entries.
	f0, err := NewHYBThreshold(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f0.SpillNNZ() != int64(m.NNZ()) {
		t.Errorf("threshold 0: spill %d, want all %d", f0.SpillNNZ(), m.NNZ())
	}
	if _, err := NewHYBThreshold(m, -1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestCSR5TileGeometry(t *testing.T) {
	m := matrix.Random(100, 100, 0.1, 13)
	f, err := NewCSR5(m)
	if err != nil {
		t.Fatal(err)
	}
	wantTiles := (m.NNZ() + tileN - 1) / tileN
	if f.tiles != wantTiles {
		t.Errorf("tiles = %d, want %d", f.tiles, wantTiles)
	}
	if !strings.Contains(f.String(), "tiles") {
		t.Error("String() should describe tiles")
	}
	// Traits must report the descriptor overhead.
	if tr := f.Traits(); tr.MetaBytesPerNNZ <= 4 {
		t.Errorf("CSR5 meta %g should exceed plain CSR's 4", tr.MetaBytesPerNNZ)
	}
}

func TestCSR5EmptyMatrix(t *testing.T) {
	m, err := matrix.NewCSR(5, 5, []int32{0, 0, 0, 0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewCSR5(m)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{1, 1, 1, 1, 1}
	f.SpMV(make([]float64, 5), y)
	for _, v := range y {
		if v != 0 {
			t.Error("empty CSR5 SpMV must zero y")
		}
	}
}

func TestSELLCSPaddingShrinksWithSorting(t *testing.T) {
	// Alternating short/long rows: without sorting every chunk pads to the
	// long length; with sigma sorting, padding nearly vanishes.
	sizes := make([]int, 512)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 32
		} else {
			sizes[i] = 2
		}
	}
	m := matrix.RandomRowSizes(512, 2000, sizes, 14)
	unsorted, err := NewSELLCS(m, 8, 1) // sigma=1: no sorting
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := NewSELLCS(m, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.PaddedEntries() >= unsorted.PaddedEntries() {
		t.Errorf("sigma sorting did not reduce padding: %d vs %d",
			sorted.PaddedEntries(), unsorted.PaddedEntries())
	}
}

func TestSELLCSRejectsBadConfig(t *testing.T) {
	m := matrix.Identity(8)
	if _, err := NewSELLCS(m, 0, 8); err == nil {
		t.Error("chunk 0 accepted")
	}
	if _, err := NewSELLCS(m, 4, 0); err == nil {
		t.Error("sigma 0 accepted")
	}
}

func TestSPXCompression(t *testing.T) {
	// A matrix of long horizontal runs compresses well.
	o := matrix.NewCOO(100, 1000, 0)
	for i := int32(0); i < 100; i++ {
		for c := int32(0); c < 40; c++ {
			o.Append(i, 100+c, float64(c))
		}
	}
	runs := NewSPX(o.ToCSR())
	if r := runs.CompressionRatio(); r < 1.4 {
		t.Errorf("run-structured compression ratio = %g, want > 1.4", r)
	}
	// Scattered singletons with big gaps compress less but must stay valid.
	scattered := NewSPX(matrix.Random(100, 100000, 0.0002, 15))
	if r := scattered.CompressionRatio(); r > 1.6 {
		t.Errorf("scattered compression ratio = %g suspiciously high", r)
	}
}

func TestSPXDeltaWidths(t *testing.T) {
	// Columns with gaps needing 1, 2 and 4 byte deltas in one row.
	o := matrix.NewCOO(1, 1<<26, 0)
	cols := []int32{0, 10, 300, 70000, 1 << 25}
	for _, c := range cols {
		o.Append(0, c, 1)
	}
	m := o.ToCSR()
	f := NewSPX(m)
	x := make([]float64, m.Cols)
	for _, c := range cols {
		x[c] = float64(c)
	}
	y := make([]float64, 1)
	f.SpMV(x, y)
	want := 0.0
	for _, c := range cols {
		want += float64(c)
	}
	if math.Abs(y[0]-want) > 1e-9 {
		t.Errorf("delta decode: got %g, want %g", y[0], want)
	}
}

func TestBCSRBlocksAndFillGate(t *testing.T) {
	// 2x2 dense blocks pack perfectly.
	o := matrix.NewCOO(8, 8, 0)
	for _, base := range []int32{0, 4} {
		for r := int32(0); r < 2; r++ {
			for c := int32(0); c < 2; c++ {
				o.Append(base+r, base+c, 1)
			}
		}
	}
	m := o.ToCSR()
	f, err := NewBCSR(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != 2 {
		t.Errorf("blocks = %d, want 2", f.Blocks())
	}
	if tr := f.Traits(); tr.PaddingRatio != 0 {
		t.Errorf("dense blocks padding = %g, want 0", tr.PaddingRatio)
	}
	// Fully scattered: one entry per block, fill ratio 4 with 2x2; a sparse
	// diagonal-ish spread exceeding the gate must be refused.
	if _, err := NewBCSR(matrix.Random(400, 4000, 0.0005, 18), 4, 4); !errors.Is(err, ErrBuild) {
		t.Error("BCSR accepted a hostile fill ratio")
	}
	if _, err := NewBCSR(m, 0, 2); err == nil {
		t.Error("BCSR accepted block size 0")
	}
}

func TestInspectorCSRDecisions(t *testing.T) {
	longRows := matrix.RandomRowSizes(40, 400, uniformSizes(40, 30), 19)
	f := NewInspectorCSR(longRows)
	if !f.vectorize {
		t.Error("inspector should vectorize long rows")
	}
	if f.balance {
		t.Error("inspector should not balance a uniform matrix")
	}

	sizes := uniformSizes(40, 2)
	sizes[3] = 200
	skewed := matrix.RandomRowSizes(40, 400, sizes, 20)
	fs := NewInspectorCSR(skewed)
	if !fs.balance {
		t.Error("inspector should balance a skewed matrix")
	}
	if tr := fs.Traits(); tr.Balancing != NNZGranular || !tr.Preprocessed {
		t.Errorf("inspector traits wrong: %+v", tr)
	}
}

func TestTraitsBalancingString(t *testing.T) {
	for b, want := range map[Balancing]string{
		RowGranular: "row-granular", NNZGranular: "nnz-granular", ItemGranular: "item-granular",
	} {
		if b.String() != want {
			t.Errorf("%d: %q != %q", int(b), b.String(), want)
		}
	}
}

func TestShapePanics(t *testing.T) {
	m := matrix.Identity(8)
	for _, b := range Registry() {
		f, err := b.Build(m)
		if err != nil {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: wrong-shape SpMV did not panic", b.Name)
				}
			}()
			f.SpMV(make([]float64, 7), make([]float64, 8))
		}()
	}
}
