package spmv_test

import (
	"bytes"
	"math"
	"testing"

	spmv "repro"

	"repro/internal/matrix"
)

// TestEndToEndPipeline exercises the full public workflow: generate a
// matrix from features, round-trip it through MatrixMarket, extract its
// features, build every format, run SpMV, and ask every device model for a
// prediction.
func TestEndToEndPipeline(t *testing.T) {
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 2000, Cols: 2000,
		AvgNNZPerRow: 12, StdNNZPerRow: 4,
		SkewCoeff: 8, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.9,
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}

	// MatrixMarket round trip through the facade.
	var buf bytes.Buffer
	if err := spmv.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := spmv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Fatal("MatrixMarket round trip changed the matrix")
	}

	// Features measured from the concrete matrix.
	fv := spmv.Extract(m)
	if fv.NNZ != int64(m.NNZ()) || fv.AvgNNZPerRow < 10 || fv.AvgNNZPerRow > 14 {
		t.Fatalf("implausible features %+v", fv)
	}

	// Every format agrees with the reference.
	x := matrix.RandomVector(m.Cols, 1)
	want := make([]float64, m.Rows)
	m.SpMV(x, want)
	built := 0
	for _, b := range spmv.Formats() {
		f, err := b.Build(m)
		if err != nil {
			continue
		}
		built++
		got := make([]float64, m.Rows)
		f.SpMVParallel(x, got, 4)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: row %d differs", b.Name, i)
			}
		}
	}
	if built < len(spmv.Formats()) {
		t.Errorf("only %d of %d formats built", built, len(spmv.Formats()))
	}

	// Every device produces a feasible prediction for this small matrix.
	for _, d := range spmv.Devices() {
		name, res, ok := d.BestFormat(fv)
		if !ok {
			t.Errorf("%s: no feasible format", d.Name)
			continue
		}
		if res.GFLOPS <= 0 || res.Watts <= 0 || name == "" {
			t.Errorf("%s: implausible prediction %+v via %s", d.Name, res, name)
		}
	}
}

func TestFacadeLookups(t *testing.T) {
	if len(spmv.Formats()) != 9 {
		t.Errorf("formats = %d, want 9", len(spmv.Formats()))
	}
	if _, ok := spmv.FormatByName("ELL"); ok {
		t.Error("ELL is back in the facade: HYB's slab is the one padded-slab kernel")
	}
	for _, twin := range []string{"Vec-CSR", "Bal-CSR"} {
		if _, ok := spmv.FormatByName(twin); ok {
			t.Errorf("%s is back in the facade: it would run another CSR preset's kernel", twin)
		}
	}
	if len(spmv.Devices()) != 9 {
		t.Errorf("devices = %d, want 9", len(spmv.Devices()))
	}
	if _, ok := spmv.FormatByName("CSR5"); !ok {
		t.Error("CSR5 missing from facade")
	}
	if _, ok := spmv.DeviceByName("Alveo-U280"); !ok {
		t.Error("Alveo missing from facade")
	}
	if len(spmv.Experiments()) != 12 {
		t.Errorf("experiments = %d, want the paper's twelve", len(spmv.Experiments()))
	}
	if _, ok := spmv.ExperimentByID("fig7"); !ok {
		t.Error("fig7 missing from facade")
	}
}

func TestGenerateFromFeatures(t *testing.T) {
	fv := spmv.Features{MemFootprintMB: 2, AvgNNZPerRow: 16, SkewCoeff: 5,
		CrossRowSim: 0.5, AvgNumNeigh: 1.0, BWScaled: 0.3}
	m, err := spmv.GenerateFromFeatures(fv, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := spmv.Extract(m)
	if math.Abs(got.MemFootprintMB-2) > 0.3 {
		t.Errorf("footprint = %g, want ~2", got.MemFootprintMB)
	}
}
