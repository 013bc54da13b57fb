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

func TestOperationalIntensityBelowOne(t *testing.T) {
	// The paper: SpMV flop-per-byte ratio is below 1 for CSR.
	m := matrix.Random(200, 200, 0.1, 3)
	fv := Extract(m)
	oi := fv.OperationalIntensity()
	if oi <= 0 || oi >= 1 {
		t.Errorf("OperationalIntensity = %g, want in (0,1)", oi)
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
