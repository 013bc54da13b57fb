package formats

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

func autoTestMatrix(t *testing.T) *matrix.CSR {
	t.Helper()
	m, err := gen.Generate(gen.Params{
		Rows: 3000, Cols: 3000,
		AvgNNZPerRow: 12, StdNNZPerRow: 4,
		SkewCoeff: 8, BWScaled: 0.4, CrossRowSim: 0.5, AvgNumNeigh: 0.9,
		Seed: 99,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return m
}

// TestAutoWrapperEquivalence verifies the Auto wrapper is numerically
// transparent for every registry format: wrapping adds a name and a
// decision record, nothing else — SpMV, SpMVParallel and MultiplyMany
// must be bit-identical to a separately built concrete instance.
func TestAutoWrapperEquivalence(t *testing.T) {
	m := autoTestMatrix(t)
	for _, b := range Registry() {
		inner, err := b.Build(m)
		if err != nil {
			continue // e.g. SELL-C-s refuses a slab past MaxPaddedEntries
		}
		direct, err := b.Build(m)
		if err != nil {
			t.Fatalf("%s: second build failed: %v", b.Name, err)
		}
		a := NewAuto(inner, AutoChoice{K: 1, Device: "test"})
		if a.Chosen() != b.Name {
			t.Fatalf("Chosen() = %q, want %q", a.Chosen(), b.Name)
		}
		if want := "Auto[" + b.Name + "]"; a.Name() != want {
			t.Fatalf("Name() = %q, want %q", a.Name(), want)
		}
		if a.Unwrap() != inner {
			t.Fatalf("%s: Unwrap returned a different instance", b.Name)
		}
		x := matrix.RandomVector(m.Cols, 5)
		yA := make([]float64, m.Rows)
		yD := make([]float64, m.Rows)
		a.SpMV(x, yA)
		direct.SpMV(x, yD)
		for i := range yA {
			if yA[i] != yD[i] {
				t.Fatalf("%s: serial SpMV diverges at row %d", b.Name, i)
			}
		}
		a.SpMVParallel(x, yA, 4)
		direct.SpMVParallel(x, yD, 4)
		for i := range yA {
			if yA[i] != yD[i] {
				t.Fatalf("%s: parallel SpMV diverges at row %d", b.Name, i)
			}
		}
		for _, k := range []int{1, 4, 8} {
			xk := matrix.RandomVector(m.Cols*k, 7)
			ykA := make([]float64, m.Rows*k)
			ykD := make([]float64, m.Rows*k)
			a.MultiplyMany(ykA, xk, k)
			direct.MultiplyMany(ykD, xk, k)
			for i := range ykA {
				if ykA[i] != ykD[i] {
					t.Fatalf("%s k=%d: MultiplyMany diverges at %d", b.Name, k, i)
				}
			}
		}
	}
}

// TestMultiTraitsContract pins the k-aware trait presentation: identical to
// EstimateTraits at k = 1 and for every format without slab striding; the
// fused slab formats (SELL-C-s, HYB) diverge at k > 1 per the
// padding-skip and line-waste model in multitraits.go.
func TestMultiTraitsContract(t *testing.T) {
	m := autoTestMatrix(t)
	fv := core.Extract(m)
	slab := map[string]bool{"SELL-C-s": true, "HYB": true}
	for _, b := range Registry() {
		for _, k := range []int{1, 8} {
			tr, fused := MultiTraits(b.Name, fv, k)
			if fused != FusedMulti(b.Name) {
				t.Errorf("%s: fused flag mismatch", b.Name)
			}
			if k == 1 || !slab[b.Name] {
				if tr != EstimateTraits(b.Name, fv) {
					t.Errorf("%s k=%d: MultiTraits must match EstimateTraits", b.Name, k)
				}
			}
		}
	}
	// Padding skip: the fused HYB kernel never touches tail padding.
	tr, _ := MultiTraits("HYB", fv, 8)
	if tr.PaddingRatio != 0 {
		t.Errorf("HYB k=8: padding %g, want 0 (rowLen table skips it)", tr.PaddingRatio)
	}
	if tr.MetaBytesPerNNZ <= 0 {
		t.Errorf("HYB k=8: non-positive meta %g", tr.MetaBytesPerNNZ)
	}
}
