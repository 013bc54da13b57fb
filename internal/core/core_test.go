package core

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

func TestExtractIdentity(t *testing.T) {
	m := matrix.Identity(100)
	fv := Extract(m)
	if fv.AvgNNZPerRow != 1 {
		t.Errorf("AvgNNZPerRow = %g, want 1", fv.AvgNNZPerRow)
	}
	if fv.SkewCoeff != 0 {
		t.Errorf("SkewCoeff = %g, want 0 for perfectly balanced", fv.SkewCoeff)
	}
	if fv.AvgNumNeigh != 0 {
		t.Errorf("AvgNumNeigh = %g, want 0 (single entry per row)", fv.AvgNumNeigh)
	}
	// Diagonal: next row's entry is at distance 1 -> full cross-row similarity.
	if fv.CrossRowSim != 1 {
		t.Errorf("CrossRowSim = %g, want 1 for the identity", fv.CrossRowSim)
	}
}

func TestExtractDenseRow(t *testing.T) {
	// One row, all columns occupied: every interior element has 2 neighbors.
	o := matrix.NewCOO(1, 50, 50)
	for j := int32(0); j < 50; j++ {
		o.Append(0, j, 1)
	}
	fv := Extract(o.ToCSR())
	want := float64(2*49) / 50 // 49 adjacent pairs contribute 2 each
	if !floatNear(fv.AvgNumNeigh, want, 1e-12) {
		t.Errorf("AvgNumNeigh = %g, want %g", fv.AvgNumNeigh, want)
	}
	if fv.BWScaled != 1 {
		t.Errorf("BWScaled = %g, want 1 for a full row", fv.BWScaled)
	}
}

func TestExtractRowSpans(t *testing.T) {
	// Row spans 8 (columns 2..9) and 1; the empty middle row is not counted.
	m, err := matrix.NewCSR(3, 10, []int32{0, 3, 3, 4}, []int32{2, 5, 9, 0}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if fv := Extract(m); fv.BWScaled != 0.45 {
		t.Errorf("BWScaled = %g, want (8+1)/2/10 = 0.45", fv.BWScaled)
	}
}

func TestSkewCoeffDefinition(t *testing.T) {
	// Rows with 1,1,1,5 nonzeros: avg=2, max=5 -> skew=(5-2)/2=1.5.
	m := matrix.RandomRowSizes(4, 100, []int{1, 1, 1, 5}, 9)
	fv := Extract(m)
	if !floatNear(fv.SkewCoeff, 1.5, 1e-12) {
		t.Errorf("SkewCoeff = %g, want 1.5", fv.SkewCoeff)
	}
}

func TestCrossRowSimExtremes(t *testing.T) {
	// Two identical rows -> similarity 1.
	o := matrix.NewCOO(2, 10, 6)
	for _, c := range []int32{1, 4, 8} {
		o.Append(0, c, 1)
		o.Append(1, c, 1)
	}
	fv := Extract(o.ToCSR())
	if fv.CrossRowSim != 1 {
		t.Errorf("identical rows: CrossRowSim = %g, want 1", fv.CrossRowSim)
	}

	// Disjoint far-apart rows -> similarity 0.
	o2 := matrix.NewCOO(2, 100, 4)
	o2.Append(0, 10, 1)
	o2.Append(0, 20, 1)
	o2.Append(1, 50, 1)
	o2.Append(1, 90, 1)
	fv2 := Extract(o2.ToCSR())
	if fv2.CrossRowSim != 0 {
		t.Errorf("disjoint rows: CrossRowSim = %g, want 0", fv2.CrossRowSim)
	}
}

func TestCrossRowSimWindow(t *testing.T) {
	// Next-row element within distance 1 counts, beyond does not.
	o := matrix.NewCOO(2, 10, 2)
	o.Append(0, 5, 1)
	o.Append(1, 6, 1) // distance 1: neighbor
	if fv := Extract(o.ToCSR()); fv.CrossRowSim != 1 {
		t.Errorf("distance-1: CrossRowSim = %g, want 1", fv.CrossRowSim)
	}
	o2 := matrix.NewCOO(2, 10, 2)
	o2.Append(0, 5, 1)
	o2.Append(1, 7, 1) // distance 2: not a neighbor
	if fv := Extract(o2.ToCSR()); fv.CrossRowSim != 0 {
		t.Errorf("distance-2: CrossRowSim = %g, want 0", fv.CrossRowSim)
	}
}

func TestAvgNumNeighborsRange(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		m := matrix.Random(50, 50, 0.2, seed)
		fv := Extract(m)
		if fv.AvgNumNeigh < 0 || fv.AvgNumNeigh > 2 {
			t.Errorf("AvgNumNeigh = %g outside [0,2]", fv.AvgNumNeigh)
		}
		if fv.CrossRowSim < 0 || fv.CrossRowSim > 1 {
			t.Errorf("CrossRowSim = %g outside [0,1]", fv.CrossRowSim)
		}
		if fv.BWScaled < 0 || fv.BWScaled > 1 {
			t.Errorf("BWScaled = %g outside [0,1]", fv.BWScaled)
		}
	}
}

func TestEmptyAndTinyMatrices(t *testing.T) {
	empty, err := matrix.NewCSR(0, 0, []int32{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fv := Extract(empty)
	if fv.NNZ != 0 || fv.AvgNNZPerRow != 0 || fv.SkewCoeff != 0 {
		t.Error("empty matrix features not zero")
	}

	single := matrix.Identity(1)
	fv2 := Extract(single)
	if fv2.CrossRowSim != 0 {
		t.Error("single-row matrix should have zero cross-row similarity")
	}
}

func TestClassifyRange(t *testing.T) {
	cases := []struct {
		v    float64
		want SizeClass
	}{
		{0.0, Small}, {0.3, Small}, {0.4, Medium}, {0.6, Medium}, {0.7, Large}, {1.0, Large},
		{-1, Small}, {2, Large}, // clamped
	}
	for _, tc := range cases {
		if got := ClassifyRange(tc.v, 0, 1); got != tc.want {
			t.Errorf("ClassifyRange(%g) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestRegularityLabel(t *testing.T) {
	fv := FeatureVector{AvgNumNeigh: 1.9, CrossRowSim: 0.1}
	if got := fv.RegularityLabel(); got != "LS" {
		t.Errorf("RegularityLabel = %q, want LS", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	a := FeatureVector{MemFootprintMB: 100, AvgNNZPerRow: 20, SkewCoeff: 10, CrossRowSim: 0.5, AvgNumNeigh: 1}
	if d := Distance(a, a); d != 0 {
		t.Errorf("Distance(a,a) = %g, want 0", d)
	}
	b := a
	b.MemFootprintMB = 200
	if Distance(a, b) <= 0 {
		t.Error("distance to a different point should be positive")
	}
	if math.Abs(Distance(a, b)-Distance(b, a)) > 1e-15 {
		t.Error("distance not symmetric")
	}
	c := a
	c.MemFootprintMB = 1000
	if Distance(a, c) <= Distance(a, b) {
		t.Error("larger feature gap should give larger distance")
	}
}

func TestBottleneckStrings(t *testing.T) {
	for b, want := range map[Bottleneck]string{
		BandwidthIntensity: "memory-bandwidth intensity",
		LowILP:             "low ILP",
		LoadImbalance:      "load imbalance",
		MemoryLatency:      "memory latency overheads",
	} {
		if b.String() != want {
			t.Errorf("Bottleneck %d = %q, want %q", int(b), b.String(), want)
		}
	}
}

func floatNear(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// referenceExtract is extract's definition as three passes over the matrix,
// the way the paper states the features: one for the neighbor count, one
// merging each row with the next for the cross-row similarity, one for the
// row spans. Each pass visits the rows i ≡ 0 (mod stride); the row-length
// fields read every row. At stride 1 it is Extract's definition.
func referenceExtract(m *matrix.CSR, stride int) FeatureVector {
	fv := FeatureVector{Rows: m.Rows, Cols: m.Cols, NNZ: int64(m.NNZ()),
		MemFootprintMB: m.FootprintMB(), AvgNNZPerRow: m.AvgRowNNZ()}
	if m.Rows == 0 || m.NNZ() == 0 {
		return fv
	}
	avg := fv.AvgNNZPerRow
	fv.SkewCoeff = (float64(m.MaxRowNNZ()) - avg) / avg

	var neigh, nnz int64
	for i := 0; i < m.Rows; i += stride {
		cols, _ := m.Row(i)
		nnz += int64(len(cols))
		for k := 1; k < len(cols); k++ {
			if cols[k]-cols[k-1] <= NeighborDistance {
				neigh += 2
			}
		}
	}
	if nnz > 0 {
		fv.AvgNumNeigh = float64(neigh) / float64(nnz)
	}

	var simSum float64
	counted := 0
	for i := 0; i < m.Rows-1; i += stride {
		cur, _ := m.Row(i)
		next, _ := m.Row(i + 1)
		if len(cur) == 0 {
			continue
		}
		counted++
		if len(next) == 0 {
			continue
		}
		matched, j := 0, 0
		for _, c := range cur {
			for j < len(next) && next[j] < c-NeighborDistance {
				j++
			}
			if j < len(next) && next[j] <= c+NeighborDistance {
				matched++
			}
		}
		simSum += float64(matched) / float64(len(cur))
	}
	if counted > 0 {
		fv.CrossRowSim = simSum / float64(counted)
	}

	var bwSum float64
	counted = 0
	for i := 0; i < m.Rows; i += stride {
		if cols, _ := m.Row(i); len(cols) > 0 {
			counted++
			bwSum += float64(int(cols[len(cols)-1]-cols[0]) + 1)
		}
	}
	if counted > 0 {
		fv.BWScaled = bwSum / float64(counted) / float64(m.Cols)
	}
	return fv
}

// sameBits reports whether two feature vectors agree field for field, the
// floating-point ones bit for bit.
func sameBits(a, b FeatureVector) bool {
	fa := []float64{a.MemFootprintMB, a.AvgNNZPerRow, a.SkewCoeff, a.CrossRowSim, a.AvgNumNeigh, a.BWScaled}
	fb := []float64{b.MemFootprintMB, b.AvgNNZPerRow, b.SkewCoeff, b.CrossRowSim, b.AvgNumNeigh, b.BWScaled}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Rows == b.Rows && a.Cols == b.Cols && a.NNZ == b.NNZ
}

// decodeCSR reads data[0]%65 rows and data[1] columns, then one entry per
// following byte pair (row byte modulo rows, column byte modulo cols).
// Columns reach 255, so a row crosses the bitmap's 64-bit words.
func decodeCSR(data []byte) *matrix.CSR {
	if len(data) < 2 {
		return &matrix.CSR{RowPtr: []int32{0}}
	}
	rows, cols := int(data[0]%65), int(data[1])
	o := matrix.NewCOO(rows, cols, len(data)/2)
	for k := 2; k+1 < len(data) && rows > 0 && cols > 0; k += 2 {
		o.Append(int32(int(data[k])%rows), int32(int(data[k+1])%cols), 1)
	}
	return o.ToCSR()
}

// FuzzExtractMatchesReference holds the strided loop to its three-pass
// definition at every stride: the first byte is the stride (1 + byte%8),
// the rest decodeCSR's matrix.
func FuzzExtractMatchesReference(f *testing.F) {
	f.Add([]byte{})                                 // empty matrix
	f.Add([]byte{0, 1, 10, 0, 3, 0, 4, 0, 9})       // Rows = 1
	f.Add([]byte{0, 5, 1, 0, 0, 1, 0, 3, 0, 4, 0})  // Cols = 1
	f.Add([]byte{0, 6, 20, 0, 3, 2, 4, 2, 5, 5, 9}) // empty rows
	f.Add([]byte{1, 6, 20, 1, 3, 3, 4, 5, 5, 5, 9}) // stride 2, every visited row empty
	f.Add([]byte{0, 3, 40, 0, 0, 0, 39, 1, 39, 1, 38, 2, 0, 2, 1})
	f.Add([]byte{2, 7, 40, 0, 0, 0, 39, 1, 39, 3, 38, 3, 0, 4, 1, 6, 2})
	f.Add([]byte{0, 4, 255, 0, 63, 0, 64, 1, 64, 1, 128, 2, 127, 2, 191, 3, 192, 3, 0, 3, 254, 0, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		stride := 1
		if len(data) > 0 {
			stride, data = 1+int(data[0]%8), data[1:]
		}
		m := decodeCSR(data)
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded an invalid matrix: %v", err)
		}
		if got, want := extract(m, stride), referenceExtract(m, stride); !sameBits(got, want) {
			t.Fatalf("stride %d: extract = %#v\nreference %#v", stride, got, want)
		}
	})
}

func TestExtractMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rows, cols := 50+int(seed)*7, 64*int(seed%5)+int(seed%3)+1
		sizes := make([]int, rows)
		for i := range sizes {
			sizes[i] = int((seed*int64(i) + 3) % 9) // 0 to 8 entries, some rows empty
		}
		for _, m := range []*matrix.CSR{
			matrix.Random(rows, cols, 0.02*float64(seed%6+1), seed),
			matrix.RandomRowSizes(rows, cols, sizes, seed),
		} {
			for _, stride := range []int{1, 2, 7} {
				if got, want := extract(m, stride), referenceExtract(m, stride); !sameBits(got, want) {
					t.Fatalf("seed %d, stride %d: extract = %#v\nreference %#v", seed, stride, got, want)
				}
			}
		}
	}
}

// TestEstimateStride: Estimate's stride is ⌈nnz / 2¹⁹⌉, so it is Extract up
// to 2¹⁹ nonzeros and visits every other row one nonzero past it.
func TestEstimateStride(t *testing.T) {
	// 2¹⁸ rows alternating one and three entries: 2¹⁹ nonzeros, and the
	// even rows alone read differently from all of them.
	const n = 1 << 18
	build := func(extra bool) *matrix.CSR {
		o := matrix.NewCOO(n, n, 1<<19+1)
		for i := int32(0); i < n; i++ {
			o.Append(i, i, 1)
			if i%2 == 1 {
				o.Append(i, (i+5)%n, 1)
				o.Append(i, (i+9)%n, 1)
			}
		}
		if extra {
			o.Append(0, n-1, 1)
		}
		return o.ToCSR()
	}
	at, past := build(false), build(true)
	if at.NNZ() != 1<<19 || past.NNZ() != 1<<19+1 {
		t.Fatalf("nonzeros %d and %d", at.NNZ(), past.NNZ())
	}
	if got, want := Estimate(at), Extract(at); !sameBits(got, want) {
		t.Errorf("at 2^19: Estimate = %#v\nExtract %#v", got, want)
	}
	if got, want := Estimate(past), extract(past, 2); !sameBits(got, want) || sameBits(got, Extract(past)) {
		t.Errorf("past 2^19: Estimate = %#v\nstride 2 %#v", got, want)
	}
}
