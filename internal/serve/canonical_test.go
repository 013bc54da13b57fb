package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/update"
)

// A served answer is the same bytes whether the request ran alone or rode
// a coalesced batch with other clients' vectors: on an MKL-IE-hosted
// matrix, plain and updatable (with cells set in its overlay), the same x
// posted to /multiply once on an idle matrix and once queued behind a
// held call with another request — one k = 2 kernel call — gets response
// bodies identical up to the "batch" member, which reports 1 and 2.
func TestServedAnswerIndependentOfBatching(t *testing.T) {
	m, err := gen.Generate(gen.Params{Rows: 400, Cols: 400, AvgNNZPerRow: 60, StdNNZPerRow: 20,
		SkewCoeff: 0.5, BWScaled: 0.5, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := formats.Lookup("MKL-IE")
	plain, err := b.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := update.New(m, update.Options{Format: "MKL-IE", NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		upd.Set(i*9%m.Rows, i*37%m.Cols, float64(i)/7-2)
	}
	x, other := matrix.RandomVector(m.Cols, 1), matrix.RandomVector(m.Cols, 2)
	body := func(x []float64) []byte {
		b, err := json.Marshal(MultiplyRequest{X: x})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// post runs one request through the multiply handler on its own
	// goroutine and returns where its recorder will arrive.
	post := func(co *Coalescer, x []float64) <-chan *httptest.ResponseRecorder {
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/matrices/m/multiply", bytes.NewReader(body(x)))
			serveMultiply(rec, req, co, &multiplyBufs{y: make([]float64, m.Rows)})
			out <- rec
		}()
		return out
	}
	for name, f := range map[string]formats.Format{"plain": plain, "updatable": upd} {
		co := NewCoalescer(context.Background(), f, DefaultMaxBatch)
		alone := <-post(co, x)
		co.Close()

		h := holdFormat(f)
		co = NewCoalescer(context.Background(), h, DefaultMaxBatch)
		first := send(co, context.Background(), matrix.RandomVector(m.Cols, 3))
		h.started(t)
		mine, theirs := post(co, x), post(co, other)
		waitAdmitted(t, co, 3)
		close(h.release)
		receive(t, first)
		if k := h.started(t); k != 2 {
			t.Fatalf("%s: the queued requests rode a call of k = %d, want 2", name, k)
		}
		batched := <-mine
		<-theirs
		co.Close()
		if alone.Code != http.StatusOK || batched.Code != http.StatusOK {
			t.Fatalf("%s: status %d alone, %d batched", name, alone.Code, batched.Code)
		}
		a, aBatch, _ := bytes.Cut(alone.Body.Bytes(), []byte(`,"batch":`))
		bt, btBatch, _ := bytes.Cut(batched.Body.Bytes(), []byte(`,"batch":`))
		if string(aBatch) != "1}}\n" || string(btBatch) != "2}}\n" {
			t.Fatalf("%s: batch members %q alone, %q batched", name, aBatch, btBatch)
		}
		if !bytes.Equal(a, bt) {
			t.Fatalf("%s: the answer batched with another client's vector differs from the lone one:\n%.200s\n%.200s", name, bt, a)
		}
	}
}
