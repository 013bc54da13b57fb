package dataset

import (
	"math"
	"testing"
)

func TestGridSizesMatchPaper(t *testing.T) {
	// Section V-E: ~3K, 16200 (Table I), and 27000 matrices.
	if got := len(Medium.Grid()); got != 16200 {
		t.Errorf("medium grid = %d, want 16200", got)
	}
	if got := len(Large.Grid()); got != 27000 {
		t.Errorf("large grid = %d, want 27000", got)
	}
	small := len(Small.Grid())
	if small < 2500 || small > 4000 {
		t.Errorf("small grid = %d, want ~3K", small)
	}
}

func TestFootprintsInsideClasses(t *testing.T) {
	for _, size := range []Size{Small, Medium, Large} {
		for _, mb := range size.Footprints() {
			if mb < FootprintClasses[0][0] || mb > FootprintClasses[2][1] {
				t.Errorf("%v: footprint %g outside Table I bounds", size, mb)
			}
		}
	}
}

func TestGridPointConsistency(t *testing.T) {
	for _, fv := range Small.Grid()[:200] {
		if fv.Rows <= 0 || fv.NNZ <= 0 {
			t.Fatalf("degenerate point %+v", fv)
		}
		// The CSR footprint formula must invert within rounding.
		impliedMB := (float64(fv.NNZ)*12 + float64(fv.Rows+1)*4) / (1 << 20)
		if math.Abs(impliedMB-fv.MemFootprintMB) > 0.02*fv.MemFootprintMB {
			t.Fatalf("footprint mismatch: point %g MB implies %g MB", fv.MemFootprintMB, impliedMB)
		}
		if fv.Rows != fv.Cols {
			t.Fatal("grid matrices must be square")
		}
	}
}

func TestSample(t *testing.T) {
	s := Medium.Sample(100, 7)
	if len(s) == 0 || len(s) > 110 {
		t.Errorf("sample size %d", len(s))
	}
	again := Medium.Sample(100, 7)
	for i := range s {
		if s[i] != again[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	full := Small.Sample(0, 1)
	if len(full) != len(Small.Grid()) {
		t.Error("n=0 should return the full grid")
	}
}

func TestTableIIIComplete(t *testing.T) {
	suite := TableIII()
	if len(suite) != 45 {
		t.Fatalf("validation suite = %d matrices, want 45", len(suite))
	}
	seen := map[string]bool{}
	prevMB := 0.0
	for i, v := range suite {
		if v.ID != i+1 {
			t.Errorf("%s: ID %d at position %d", v.Name, v.ID, i)
		}
		if seen[v.Name] {
			t.Errorf("duplicate matrix %s", v.Name)
		}
		seen[v.Name] = true
		if v.FootprintMB < prevMB {
			t.Errorf("%s: suite not ordered by footprint", v.Name)
		}
		prevMB = v.FootprintMB
		if len(v.Regularity) != 2 {
			t.Errorf("%s: bad regularity label %q", v.Name, v.Regularity)
		}
		for _, c := range v.Regularity {
			if c != 'S' && c != 'M' && c != 'L' {
				t.Errorf("%s: bad class letter %q", v.Name, c)
			}
		}
	}
	// Spot checks against the published table.
	if suite[0].Name != "scircuit" || suite[44].Name != "cage15" {
		t.Error("suite endpoints wrong")
	}
	if suite[37].Skew != 8006372.09 {
		t.Errorf("mawi skew = %g", suite[37].Skew)
	}
}

func TestValidationFeatures(t *testing.T) {
	v := TableIII()[0] // scircuit: 11.63 MB, 5.61 nnz/row, skew 61.95, MM
	fv := v.Features()
	if math.Abs(fv.MemFootprintMB-11.63) > 1e-9 || math.Abs(fv.SkewCoeff-61.95) > 1e-9 {
		t.Errorf("features %+v do not match the table", fv)
	}
	if math.Abs(fv.AvgNumNeigh-1.0) > 1e-9 {
		t.Errorf("M neighbor class midpoint = %g, want 1.0", fv.AvgNumNeigh)
	}
	if math.Abs(fv.CrossRowSim-0.5) > 1e-9 {
		t.Errorf("M similarity class midpoint = %g, want 0.5", fv.CrossRowSim)
	}
}

func TestFriendsWithinRange(t *testing.T) {
	v := TableIII()[10] // cant
	friends := v.Friends(0, 42)
	if len(friends) != FriendsPerMatrix {
		t.Fatalf("friends = %d, want %d", len(friends), FriendsPerMatrix)
	}
	for _, f := range friends {
		if f.MemFootprintMB < v.FootprintMB*(1-FriendRange)-1e-9 ||
			f.MemFootprintMB > v.FootprintMB*(1+FriendRange)+1e-9 {
			t.Errorf("friend footprint %g outside ±30%% of %g", f.MemFootprintMB, v.FootprintMB)
		}
		if f.AvgNNZPerRow < v.AvgNNZ*(1-FriendRange)-1e-9 ||
			f.AvgNNZPerRow > v.AvgNNZ*(1+FriendRange)+1e-9 {
			t.Errorf("friend avg %g outside ±30%% of %g", f.AvgNNZPerRow, v.AvgNNZ)
		}
		if f.CrossRowSim < 0 || f.CrossRowSim > 1 || f.AvgNumNeigh < 0 || f.AvgNumNeigh >= 2 {
			t.Errorf("friend regularity out of range: %+v", f)
		}
	}
	// Determinism.
	again := v.Friends(0, 42)
	for i := range friends {
		if friends[i] != again[i] {
			t.Fatal("friends not deterministic")
		}
	}
	// Different matrices get different friends.
	other := TableIII()[11].Friends(0, 42)
	if friends[0] == other[0] {
		t.Error("two matrices share identical friends")
	}
}
