package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/session"
)

func memSession(t testing.TB) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mmBody(t testing.TB, m *matrix.CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRegistryUploadIdempotentAndConflict(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), DefaultMaxBatch)
	defer r.Close()

	m := matrix.Random(120, 120, 0.05, 5)
	spec := UploadSpec{Name: "m1", MatrixMarket: mmBody(t, m)}
	h, created, err := r.Upload(context.Background(), spec)
	if err != nil || !created {
		t.Fatalf("first upload: created=%v err=%v", created, err)
	}

	// Bit-identical re-upload is idempotent: same incumbent, not created.
	h2, created, err := r.Upload(context.Background(), spec)
	if err != nil || created {
		t.Fatalf("re-upload: created=%v err=%v", created, err)
	}
	if h2 != h {
		t.Fatal("re-upload returned a different host")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}

	// Same structure, different values: the fingerprint cannot address
	// both — typed conflict, and the incumbent's values stay live.
	m3 := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx,
		Val: append([]float64(nil), m.Val...)}
	m3.Val[0] += 1.5
	_, _, err = r.Upload(context.Background(), UploadSpec{MatrixMarket: mmBody(t, m3)})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	if status, code := StatusOf(err); status != 409 || code != "fingerprint_conflict" {
		t.Fatalf("StatusOf = %d/%s, want 409/fingerprint_conflict", status, code)
	}
}

func TestRegistryGeneratorUpload(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), DefaultMaxBatch)
	defer r.Close()

	h, created, err := r.Upload(context.Background(), UploadSpec{
		Name:      "gen",
		Generator: &gen.Params{Rows: 200, Cols: 200, AvgNNZPerRow: 6, StdNNZPerRow: 2, BWScaled: 0.5, Seed: 11},
	})
	if err != nil || !created {
		t.Fatalf("generator upload: created=%v err=%v", created, err)
	}
	info := h.Info()
	if info.Rows != 200 || info.Cols != 200 || info.NNZ == 0 || info.Format == "" {
		t.Fatalf("bad info %+v", info)
	}

	// Invalid generator params surface as the typed 400, a shape wider
	// than int32 column indices included.
	for _, p := range []gen.Params{
		{Rows: -1, Cols: 10, AvgNNZPerRow: 2},
		{Rows: 4, Cols: 1<<33 + 5, AvgNNZPerRow: 2, BWScaled: 0.5},
	} {
		_, _, err = r.Upload(context.Background(), UploadSpec{Generator: &p})
		if !errors.Is(err, gen.ErrParams) {
			t.Fatalf("%+v: err = %v, want gen.ErrParams", p, err)
		}
		if status, code := StatusOf(err); status != 400 || code != "invalid_generator" {
			t.Fatalf("%+v: StatusOf = %d/%s, want 400/invalid_generator", p, status, code)
		}
	}
}

func TestRegistryUploadSpecValidation(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), DefaultMaxBatch)
	defer r.Close()

	m := matrix.Random(30, 30, 0.1, 1)
	for _, spec := range []UploadSpec{
		{}, // no source
		{MatrixMarket: mmBody(t, m), Generator: &gen.Params{Rows: 2, Cols: 2, AvgNNZPerRow: 1}},
		{MatrixMarket: "not a matrixmarket stream"},
	} {
		if _, _, err := r.Upload(context.Background(), spec); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("spec %+v: err = %v, want ErrBadRequest", spec, err)
		}
	}
}

func TestRegistryLookupDeleteNotFound(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), DefaultMaxBatch)
	defer r.Close()

	m := matrix.Random(80, 80, 0.05, 2)
	h, _, err := r.Upload(context.Background(), UploadSpec{MatrixMarket: mmBody(t, m)})
	if err != nil {
		t.Fatal(err)
	}

	got, err := r.Get(h.FP())
	if err != nil || got != h {
		t.Fatalf("Get(%s): %v %v", h.FP(), got, err)
	}
	if _, err := r.Get("00000000deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing fp: err = %v, want ErrNotFound", err)
	}
	if _, err := r.Get("nonsense"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad fp: err = %v, want ErrBadRequest", err)
	}

	if err := r.Delete(h.FP()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(h.FP()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-delete Get: err = %v, want ErrNotFound", err)
	}
	if err := r.Delete(h.FP()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: err = %v, want ErrNotFound", err)
	}
	// The deleted host's coalescer drained: multiplies refuse.
	if _, _, err := h.co.Multiply(context.Background(), make([]float64, 80)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("deleted host multiply: err = %v, want ErrShuttingDown", err)
	}
}

// Concurrent identical uploads race build-outside-the-lock: exactly one
// wins the insert, everyone gets the same host back.
func TestRegistryConcurrentIdenticalUploads(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), DefaultMaxBatch)
	defer r.Close()

	body := mmBody(t, matrix.Random(150, 150, 0.03, 9))
	const n = 8
	hs := make([]*Hosted, n)
	createds := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, created, err := r.Upload(context.Background(), UploadSpec{MatrixMarket: body})
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			hs[i], createds[i] = h, created
		}(i)
	}
	wg.Wait()

	wins := 0
	for i := 0; i < n; i++ {
		if createds[i] {
			wins++
		}
		if hs[i] != hs[0] {
			t.Fatal("concurrent uploads returned distinct hosts")
		}
	}
	if wins != 1 {
		t.Fatalf("created wins = %d, want exactly 1", wins)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryUpdatableHostServesUpdates(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), 4)
	defer r.Close()

	m := matrix.Random(100, 100, 0.05, 3)
	h, _, err := r.Upload(context.Background(), UploadSpec{MatrixMarket: mmBody(t, m), Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.Updatable() == nil {
		t.Fatal("host is not updatable")
	}

	x := make([]float64, 100)
	x[7] = 1 // y = column 7
	y1, _, err := h.co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	h.Updatable().Set(0, 7, y1[0]+41)
	y2, _, err := h.co.Multiply(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if diff := y2[0] - y1[0]; diff < 40.9 || diff > 41.1 {
		t.Fatalf("update not visible through coalescer: y1[0]=%v y2[0]=%v", y1[0], y2[0])
	}

	// applyCells: bounds violations are the typed 400, never a panic/500.
	if _, err := applyCells(h, []CellOp{{Row: 1000, Col: 0, Val: 1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range cell: err = %v, want ErrBadRequest", err)
	}
	n, err := applyCells(h, []CellOp{{Row: 1, Col: 1, Val: 2}, {Row: 2, Col: 2, Delete: true}})
	if err != nil || n != 2 {
		t.Fatalf("applyCells: n=%d err=%v", n, err)
	}

	// A plain host refuses cell ops with the typed conflict.
	plain, _, err := r.Upload(context.Background(), UploadSpec{
		Generator: &gen.Params{Rows: 50, Cols: 50, AvgNNZPerRow: 3, StdNNZPerRow: 1, BWScaled: 0.5, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, cellErr := applyCells(plain, []CellOp{{Row: 0, Col: 0, Val: 1}})
	if !errors.Is(cellErr, ErrNotUpdatable) {
		t.Fatalf("plain host cells: err = %v, want ErrNotUpdatable", cellErr)
	}
	if status, code := StatusOf(cellErr); status != 409 || code != "not_updatable" {
		t.Fatalf("StatusOf = %d/%s, want 409/not_updatable", status, code)
	}
}

func TestRegistryCloseRefusesUploads(t *testing.T) {
	r := NewRegistry(context.Background(), memSession(t), DefaultMaxBatch)
	m := matrix.Random(40, 40, 0.1, 6)
	if _, _, err := r.Upload(context.Background(), UploadSpec{MatrixMarket: mmBody(t, m)}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	_, _, err := r.Upload(context.Background(), UploadSpec{MatrixMarket: mmBody(t, matrix.Random(41, 41, 0.1, 6))})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close upload: err = %v, want ErrShuttingDown", err)
	}
}

// Upload is upload with spec's MatrixMarket text, as tests call it.
func (r *Registry) Upload(ctx context.Context, spec UploadSpec) (*Hosted, bool, error) {
	return r.upload(ctx, spec, []byte(spec.MatrixMarket))
}
