package formats

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/simd"
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
		want := denseReference(m, x)
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
			if d := maxAbsDiff(got, want); d > tolSmall {
				t.Errorf("%s on %s: serial SpMV differs by %g", b.Name, name, d)
			}
			for _, workers := range []int{2, 3, 8, 64} {
				for i := range got {
					got[i] = math.NaN() // ensure every row is written
				}
				f.SpMVParallel(x, got, workers)
				if d := maxAbsDiff(got, want); d > tolSmall || anyNaN(got) {
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
	// 8-byte values and 4-byte row pointers; 2-byte column indices (and
	// their slack) on a matrix of at most narrowMaxCols columns, 4-byte ones
	// on its widened twin.
	nnz := int64(m.NNZ())
	for _, c := range []struct {
		m        *matrix.CSR
		idxBytes int64
	}{{m, 2 * (nnz + simd.U16Slack)}, {widened(m), 4 * nnz}} {
		csrBytes := nnz*8 + c.idxBytes + int64(m.Rows+1)*4
		for _, b := range Registry() {
			f, err := b.Build(c.m)
			if err != nil {
				continue
			}
			if f.Bytes() <= 0 {
				t.Errorf("%s: nonpositive Bytes %d", b.Name, f.Bytes())
			}
			if f.Name() == "Naive-CSR" && f.Bytes() != csrBytes {
				t.Errorf("CSR Bytes over %d columns = %d, want %d", c.m.Cols, f.Bytes(), csrBytes)
			}
		}
	}
}

func TestHYBSplit(t *testing.T) {
	// Rows of size 2 with one size-20 row, threshold defaults near avg=2.
	sizes := uniformSizes(50, 2)
	sizes[7] = 20
	m := matrix.RandomRowSizes(50, 100, sizes, 12)
	f, err := newHYB(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.spillVal) == 0 {
		t.Error("HYB spill empty despite a long row")
	}
	if len(f.spillVal) >= m.NNZ() {
		t.Error("HYB spilled everything")
	}
	// Explicit threshold 0 spills all entries.
	f0, err := newHYBThreshold(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f0.spillVal) != m.NNZ() {
		t.Errorf("threshold 0: spill %d, want all %d", len(f0.spillVal), m.NNZ())
	}
	if _, err := newHYBThreshold(m, -1); err == nil {
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
	unsorted, err := newSELLCS(m, 8, 1) // sigma=1: no sorting
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := newSELLCS(m, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s, u := sorted.Traits().PaddingRatio, unsorted.Traits().PaddingRatio; s >= u {
		t.Errorf("sigma sorting did not reduce padding: ratio %g vs %g", s, u)
	}
}

func TestSELLCSRejectsBadConfig(t *testing.T) {
	m := matrix.Identity(8)
	if _, err := newSELLCS(m, 0, 8); err == nil {
		t.Error("chunk 0 accepted")
	}
	if _, err := newSELLCS(m, 4, 0); err == nil {
		t.Error("sigma 0 accepted")
	}
	// One chunk of 2^20 lanes over a 257-entry row pads past
	// MaxPaddedEntries: refused before the slab is allocated.
	wide := matrix.NewCOO(2, 300, 257)
	for c := int32(0); c < 257; c++ {
		wide.Append(0, c, 1)
	}
	if _, err := newSELLCS(wide.ToCSR(), 1<<20, 1); !errors.Is(err, ErrBuild) {
		t.Errorf("SELL-C-s accepted %d padded entries: %v", 257<<20, err)
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
	// CSR bytes over SPX bytes: > 1 means SPX is smaller. The CSR side is
	// SparseX's baseline, 4-byte column indices (the widened twin): the
	// CSR family narrows the indices of matrices this small itself.
	ratio := func(m *matrix.CSR) float64 {
		return float64(newPreset("Naive-CSR", widened(m)).Bytes()) / float64(NewSPX(m).Bytes())
	}
	if r := ratio(o.ToCSR()); r < 1.4 {
		t.Errorf("run-structured compression ratio = %g, want > 1.4", r)
	}
	// Scattered singletons with big gaps compress less but must stay valid.
	if r := ratio(matrix.Random(100, 100000, 0.0002, 15)); r > 1.6 {
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
	if tr := newBCSR(m).Traits(); tr.PaddingRatio != 0 {
		t.Errorf("dense blocks padding = %g, want 0", tr.PaddingRatio)
	}
	// Fully scattered: about one entry per block, near the worst fill a 2x2
	// block can store (padding 3), so construction refuses no matrix.
	tr := newBCSR(matrix.Random(400, 4000, 0.0005, 18)).Traits()
	if tr.PaddingRatio < 2 || tr.PaddingRatio > 3 {
		t.Errorf("scattered padding = %g, want in [2, 3]", tr.PaddingRatio)
	}
}

func TestInspectorCSRDecisions(t *testing.T) {
	longRows := matrix.RandomRowSizes(40, 400, uniformSizes(40, 30), 19)
	f := newPreset("MKL-IE", longRows)
	if !f.dispatch {
		t.Error("inspector should run the dispatched kernel")
	}
	if f.balance {
		t.Error("inspector should not balance a uniform matrix")
	}

	sizes := uniformSizes(40, 2)
	sizes[3] = 200
	skewed := matrix.RandomRowSizes(40, 400, sizes, 20)
	fs := newPreset("MKL-IE", skewed)
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
