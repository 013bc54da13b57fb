package spmv_test

import (
	"context"
	"errors"
	"maps"
	"testing"

	spmv "repro"
	"repro/internal/simd"
)

func facadeMatrix(t *testing.T) *spmv.Matrix {
	t.Helper()
	m, err := spmv.Generate(spmv.GeneratorParams{
		Rows: 500, Cols: 400,
		AvgNNZPerRow: 6, StdNNZPerRow: 2,
		SkewCoeff: 3, BWScaled: 0.2,
		CrossRowSim: 0.4, AvgNumNeigh: 1.0, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFacadeArgumentHardening: every Multiply entry point must reject nil
// formats, bad k, and mis-sized vectors with the typed errors — never a
// panic, never silent partial output.
func TestFacadeArgumentHardening(t *testing.T) {
	m := facadeMatrix(t)
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)

	if err := spmv.Multiply(nil, y, x); !errors.Is(err, spmv.ErrNilFormat) {
		t.Errorf("Multiply(nil format) = %v, want ErrNilFormat", err)
	}
	if err := spmv.MultiplyCtx(ctx, nil, y, x); !errors.Is(err, spmv.ErrNilFormat) {
		t.Errorf("MultiplyCtx(nil format) = %v, want ErrNilFormat", err)
	}
	if err := spmv.MultiplyMany(nil, y, x, 1); !errors.Is(err, spmv.ErrNilFormat) {
		t.Errorf("MultiplyMany(nil format) = %v, want ErrNilFormat", err)
	}
	if err := spmv.MultiplyManyCtx(ctx, nil, y, x, 1); !errors.Is(err, spmv.ErrNilFormat) {
		t.Errorf("MultiplyManyCtx(nil format) = %v, want ErrNilFormat", err)
	}

	for _, k := range []int{0, -1, -100} {
		if err := spmv.MultiplyMany(f, y, x, k); !errors.Is(err, spmv.ErrInvalidK) {
			t.Errorf("MultiplyMany(k=%d) = %v, want ErrInvalidK", k, err)
		}
		if err := spmv.MultiplyManyCtx(ctx, f, y, x, k); !errors.Is(err, spmv.ErrInvalidK) {
			t.Errorf("MultiplyManyCtx(k=%d) = %v, want ErrInvalidK", k, err)
		}
	}

	bad := [][2][]float64{
		{nil, x},                                 // nil y
		{y, nil},                                 // nil x
		{y[:m.Rows-1], x},                        // short y
		{y, x[:m.Cols-1]},                        // short x
		{append(y, 0), x},                        // long y
		{y, append(x, 0)},                        // long x
		{x, y},                                   // swapped (rows != cols here)
		{make([]float64, 0), make([]float64, 0)}, // both empty
	}
	for i, pair := range bad {
		if err := spmv.Multiply(f, pair[0], pair[1]); !errors.Is(err, spmv.ErrDimension) {
			t.Errorf("Multiply bad pair %d = %v, want ErrDimension", i, err)
		}
		if err := spmv.MultiplyCtx(ctx, f, pair[0], pair[1]); !errors.Is(err, spmv.ErrDimension) {
			t.Errorf("MultiplyCtx bad pair %d = %v, want ErrDimension", i, err)
		}
	}
	// k-scaled dimension check: correct single-vector lengths are wrong
	// for k = 2.
	if err := spmv.MultiplyMany(f, y, x, 2); !errors.Is(err, spmv.ErrDimension) {
		t.Errorf("MultiplyMany(k=2, k=1 vectors) = %v, want ErrDimension", err)
	}
	if err := spmv.MultiplyManyCtx(ctx, f, y, x, 2); !errors.Is(err, spmv.ErrDimension) {
		t.Errorf("MultiplyManyCtx(k=2, k=1 vectors) = %v, want ErrDimension", err)
	}
}

// TestFacadeMultiplyMatchesKernels: the hardened entry points still
// compute the product, identical to the format's own kernels.
func TestFacadeMultiplyMatchesKernels(t *testing.T) {
	m := facadeMatrix(t)
	b, _ := spmv.FormatByName("Naive-CSR")
	f, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want := make([]float64, m.Rows)
	f.SpMV(x, want)

	got := make([]float64, m.Rows)
	if err := spmv.Multiply(f, got, x); err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Multiply row %d = %v, want %v", i, got[i], want[i])
		}
	}
	got2 := make([]float64, m.Rows)
	if err := spmv.MultiplyCtx(ctx, f, got2, x); err != nil {
		t.Fatalf("MultiplyCtx: %v", err)
	}
	for i := range got2 {
		if got2[i] != want[i] {
			t.Fatalf("MultiplyCtx row %d = %v, want %v", i, got2[i], want[i])
		}
	}
}

// TestAutoCtxCancelled: a cancelled context aborts AutoCtx with
// context.Canceled instead of selecting.
func TestAutoCtxCancelled(t *testing.T) {
	m := facadeMatrix(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spmv.AutoCtx(ctx, m, spmv.AutoOptions{NoCache: true, NoLearn: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AutoCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	// A live context selects normally.
	f, err := spmv.AutoCtx(context.Background(), m, spmv.AutoOptions{NoCache: true, NoLearn: true})
	if err != nil {
		t.Fatalf("AutoCtx: %v", err)
	}
	if f.Chosen() == "" {
		t.Fatal("AutoCtx chose nothing")
	}
}

// TestFacadeAndDefaultSessionShareOneState: the package-level functions
// are delegates to DefaultSession(), so both observe one cache and one
// journal.
func TestFacadeAndDefaultSessionShareOneState(t *testing.T) {
	d := spmv.DefaultSession()
	m := facadeMatrix(t)

	before := d.Cache().Len()
	if _, err := spmv.Auto(m, spmv.AutoOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := d.Cache().Len(); got != before+1 {
		t.Fatalf("spmv.Auto grew the default session's cache %d -> %d, want +1", before, got)
	}

	if err := spmv.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if d.Store() == nil {
		t.Fatal("SetCacheDir attached no journal to the default session")
	}
	spmv.UnsetCacheDir()
	if d.Store() != nil {
		t.Fatal("UnsetCacheDir left the default session's journal attached")
	}
	if got := d.Cache().Len(); got != before+1 {
		t.Fatalf("UnsetCacheDir dropped cached decisions: %d, want %d", got, before+1)
	}
}

// TestFacadeSIMDSurface pins the facade's dispatch report and switch:
// under SetSIMDLevel("scalar") SIMDInfo reports the scalar tier one lane
// wide and every SIMDDispatch entry — keyed by the dispatch layer's kernel
// names — is served by the scalar reference; the token SetSIMDLevel returns
// restores the prior table.
func TestFacadeSIMDSurface(t *testing.T) {
	level0, width0, _ := spmv.SIMDInfo()
	table0 := spmv.SIMDDispatch()
	tok := spmv.SetSIMDLevel("scalar")
	restored := false
	defer func() {
		if !restored {
			spmv.SetSIMDLevel(tok)
		}
	}()

	if level, width, _ := spmv.SIMDInfo(); level != "scalar" || width != 1 {
		t.Errorf("scalar cap: SIMDInfo reports %q, width %d; want \"scalar\", 1", level, width)
	}
	table := spmv.SIMDDispatch()
	names := make(map[string]bool)
	for _, e := range simd.Table() {
		names[e.Kernel] = true
	}
	if len(table) != len(names) || !names["csr.dot-gather"] || !names["bcsr.2x2"] {
		t.Errorf("SIMDDispatch keys %v, want the dispatch table's kernel names %v", table, names)
	}
	for kernel, impl := range table {
		if !names[kernel] {
			t.Errorf("SIMDDispatch key %q is no dispatch kernel", kernel)
		}
		if impl != "scalar" {
			t.Errorf("scalar cap: %s served by %q", kernel, impl)
		}
	}

	spmv.SetSIMDLevel(tok)
	restored = true
	if level, width, _ := spmv.SIMDInfo(); level != level0 || width != width0 {
		t.Errorf("restored SIMDInfo %q/%d, want the prior %q/%d", level, width, level0, width0)
	}
	if got := spmv.SIMDDispatch(); !maps.Equal(got, table0) {
		t.Errorf("restored dispatch table %v, want the prior %v", got, table0)
	}
}
