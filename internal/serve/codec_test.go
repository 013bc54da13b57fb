package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// decodeSeeds are request bodies at the edges of the number grammar and
// of the object grammar around it; the fuzz target starts from them and
// plain `go test` runs each through the same differential.
func decodeSeeds() []string {
	seeds := []string{
		`{"x":[1,2.5,-3e2]}`, `{}`, `{"x":[]}`, ` { "x" : [ 1 , 2 ] } `,
		"\t{\n\"x\":\r[1]}\n", `null`, `[1]`, `1`, `"x"`, `{"x":null}`, `{"x":[null]}`,
		`{"X":[1]}`, `{"x":[1],"X":[2]}`, `{"\u0078":[1]}`, `{"\u0058":[1]}`, `{"\u0078x":[1]}`,
		`{"x":[1,2],"x":[3]}`, `{"x":[1],"x":[]}`, `{"x":[1],"x":null}`,
		`{"y":{"a":[1,{"b":null}],"c":"é\"\\"},"x":[4],"z":true,"w":1e999}`,
		`{"x":[1]}x`, `{"x":[1]}{}`, `{"x":[1]} 0`, `{"x":[1],}`, `{"x":[1,]}`, `{"x":[,1]}`,
		`{"x":[1 2]}`, `{"x":[1]`, `{"x":1}`, `{"x":"1"}`, `{"x":["1"]}`, `{"x":[[1]]}`, `{"x":[true]}`,
		`{"a":"\x01"}`, `{"a":"\q"}`, `{"a":"\u12g4"}`, `{"a":tru}`, `{"a":nul}`, `{x:[1]}`, `{"x"[1]}`,
		strings.Repeat("[", 5) + strings.Repeat("]", 5), `{"a":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`,
	}
	for _, num := range []string{
		"1.", ".5", "+1", "01", "0x1p3", "1_0", "Infinity", "-Infinity", "NaN", "1e999", "-1e999",
		"1e-999", "-0", "0", "-", "1e", "1e+", "1E-7", "0.1e+2", "00", "-01", "1.e3", "5e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "123456789012345678901234567890",
		"0.000000000000000000000000000001", "1,", "0e0", "-0.0",
	} {
		seeds = append(seeds, `{"x":[`+num+`]}`)
	}
	whole := `{"x":[-12.25e-3,7]}`
	for n := 0; n < len(whole); n++ {
		seeds = append(seeds, whole[:n])
	}
	return seeds
}

// narrowed reports whether a body encoding/json accepts falls under one of
// the codec's two documented narrowings: a member named "X", or null in
// place of the object, of x, or of an entry of x.
func narrowed(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := dec.Token(); tok == nil {
		return true
	}
	for dec.More() {
		key, _ := dec.Token()
		var raw json.RawMessage
		if dec.Decode(&raw) != nil {
			return false
		}
		switch key {
		case "X":
			return true
		case "x":
			if string(raw) == "null" {
				return true
			}
			var entries []json.RawMessage
			json.Unmarshal(raw, &entries)
			for _, e := range entries {
				if string(e) == "null" {
					return true
				}
			}
		}
	}
	return false
}

// The codec against its reference: whatever encoding/json rejects the
// codec rejects, and whatever it accepts the codec decodes to the same
// bits — or refuses as a bad request under a documented narrowing.
func FuzzDecodeMultiplyRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want MultiplyRequest
		jerr := json.Unmarshal(body, &want)
		// No body holds more entries than bytes: the dimension stop stays out
		// of the differential.
		got, err := DecodeMultiplyRequest(nil, body, len(body))
		switch {
		case jerr != nil && err == nil:
			t.Fatalf("codec accepted %q, encoding/json rejects it: %v", body, jerr)
		case jerr == nil && err != nil:
			if !narrowed(body) || !errors.Is(err, ErrBadRequest) {
				t.Fatalf("codec rejected %q (%v), encoding/json accepts it", body, err)
			}
		case jerr == nil:
			if len(got) != len(want.X) {
				t.Fatalf("%q: decoded %d entries, encoding/json %d", body, len(got), len(want.X))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want.X[i]) {
					t.Fatalf("%q: x[%d] = %v, encoding/json %v", body, i, got[i], want.X[i])
				}
			}
			if len(got) > 0 {
				if _, err := DecodeMultiplyRequest(nil, body, len(got)-1); !errors.Is(err, formats.ErrDimension) {
					t.Fatalf("%q against %d columns: %v, want formats.ErrDimension", body, len(got)-1, err)
				}
			}
		}
	})
}

// The dimension stop ends decoding at entry cols+1: what follows is never
// looked at, so a hostile tail costs nothing.
func TestDecodeStopsAtDimension(t *testing.T) {
	body := []byte(`{"x":[1,2,3,` + strings.Repeat("@", 1<<10))
	x, err := DecodeMultiplyRequest(make([]float64, 0, 2), body, 2)
	if !errors.Is(err, formats.ErrDimension) {
		t.Fatalf("err = %v, want formats.ErrDimension", err)
	}
	if len(x) != 2 || cap(x) != 2 {
		t.Fatalf("x grew past the matrix: len %d cap %d", len(x), cap(x))
	}
}

// Successful responses are byte for byte what encoding/json wrote before
// the codec replaced it.
func TestAppendMultiplyResponseByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vectors := [][]float64{
		{}, {0}, {math.Copysign(0, -1)},
		{5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-310},
		{1e-7, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6, -1e-7, -1e-6},
		{1e20, 1e21, 9.999999999999999e20, 1.0000000000000001e21, -1e21, 1e22, 1e100},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-9, 1.5e-10, 123456789, 0.1, 1.0 / 3},
	}
	for n := 0; n < 200; n++ {
		y := make([]float64, rng.Intn(40))
		for i := range y {
			switch rng.Intn(3) {
			case 0: // any finite bit pattern, denormals included
				for {
					if y[i] = math.Float64frombits(rng.Uint64()); !math.IsInf(y[i], 0) && !math.IsNaN(y[i]) {
						break
					}
				}
			case 1: // magnitudes around the two format switches
				y[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(40)-12))
			default:
				y[i] = rng.NormFloat64()
			}
		}
		vectors = append(vectors, y)
	}
	for _, y := range vectors {
		batch := rng.Intn(DefaultMaxBatch) + 1
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(envelope{OK: true, Data: MultiplyResponse{Y: y, Batch: batch}}); err != nil {
			t.Fatal(err)
		}
		got, err := AppendMultiplyResponse(nil, y, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("y = %v\n got %s\nwant %s", y, got, want.Bytes())
		}
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := AppendMultiplyResponse(nil, []float64{1, bad}, 1); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("y = [1 %v]: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

// wideRequest is an n-entry request body as a client's encoding/json
// writes it.
func wideRequest(tb testing.TB, n int) []byte {
	tb.Helper()
	body, err := json.Marshal(MultiplyRequest{X: matrix.RandomVector(n, 50)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// On warm buffers a decode and an encode allocate nothing, at the width
// where the codec is the request.
func TestMultiplyCodecZeroAllocs(t *testing.T) {
	const n = 50000
	body := wideRequest(t, n)
	x := make([]float64, 0, n)
	resp, _ := AppendMultiplyResponse(nil, matrix.RandomVector(n, 51), 1)
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if x, err = DecodeMultiplyRequest(x, body, n); err != nil || len(x) != n {
			t.Fatalf("decode: %d entries, %v", len(x), err)
		}
		if resp, err = AppendMultiplyResponse(resp[:0], x, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode + encode allocate %v objects per request, want 0", allocs)
	}
}

// kernelColumns returns each vector's product as the one kernel call
// serving them together computes it: the single-vector kernel for a lone
// vector, the fused kernel's column otherwise.
func kernelColumns(t *testing.T, f formats.Format, xs [][]float64) [][]float64 {
	t.Helper()
	k := len(xs)
	x, y := make([]float64, f.Cols()*k), make([]float64, f.Rows()*k)
	for c := 0; c < f.Cols(); c++ {
		for j := range xs {
			x[c*k+j] = xs[j][c]
		}
	}
	if err := f.Apply(context.Background(), y, x, k, 1); err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, f.Rows())
		for r := range out[j] {
			out[j][r] = y[r*k+j]
		}
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The ownership rule under the race detector: handlers on their own
// working sets queue behind a held kernel call, and one of their callers
// gives up while queued. Its working set must be reported unusable — its
// batch still gathers from it and scatters into it — and its siblings'
// answers must be the fused kernel's, bit for bit.
func TestServeMultiplyAbandonsCancelledCallersBuffers(t *testing.T) {
	const queued = 3
	m := testMatrix(t)
	h := holdFormat(formats.NewCSR(m))
	co := NewCoalescer(context.Background(), h, 4)
	defer co.Close()

	type served struct {
		reusable bool
		rec      *httptest.ResponseRecorder
	}
	xs := make([][]float64, queued)
	answers := make([]chan served, queued)
	serve := func(i int, ctx context.Context) {
		xs[i] = matrix.RandomVector(m.Cols, int64(i+1))
		answers[i] = make(chan served, 1)
		body, err := json.Marshal(MultiplyRequest{X: xs[i]})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			b := &multiplyBufs{x: make([]float64, 0, m.Cols), y: make([]float64, m.Rows)}
			req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			answers[i] <- served{serveMultiply(rec, req, co, b), rec}
		}()
	}

	lone := send(co, context.Background(), matrix.RandomVector(m.Cols, 99))
	h.started(t)
	ctx, cancel := context.WithCancel(context.Background())
	serve(0, ctx)
	waitAdmitted(t, co, 2)
	serve(1, context.Background())
	waitAdmitted(t, co, 3)
	serve(2, context.Background())
	waitAdmitted(t, co, 4)
	cancel()
	gone := <-answers[0]
	if gone.reusable || gone.rec.Code != StatusCanceled {
		t.Fatalf("cancelled caller: reusable=%v status=%d, want its buffers abandoned and 499", gone.reusable, gone.rec.Code)
	}
	close(h.release)
	receive(t, lone)

	want := kernelColumns(t, h.Format, xs)
	for i := 1; i < queued; i++ {
		a := <-answers[i]
		if !a.reusable || a.rec.Code != http.StatusOK {
			t.Fatalf("caller %d: reusable=%v status=%d body=%.200s", i, a.reusable, a.rec.Code, a.rec.Body)
		}
		var env struct {
			Data MultiplyResponse `json:"data"`
		}
		if err := json.Unmarshal(a.rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Data.Batch != queued || !bitsEqual(env.Data.Y, want[i]) {
			t.Fatalf("caller %d: batch %d, answer differs from the fused kernel's column", i, env.Data.Batch)
		}
	}
}

// BenchmarkMultiplyCodec times the multiply path's codec at the two widths
// the trajectory benchmark serves: the decode, the encode, and a whole
// request through the handler.
func BenchmarkMultiplyCodec(b *testing.B) {
	for _, n := range []int{3000, 50000} {
		body := wideRequest(b, n)
		y := matrix.RandomVector(n, 51)
		resp, _ := AppendMultiplyResponse(nil, y, 1)

		b.Run(fmt.Sprintf("decode/n=%d", n), func(b *testing.B) {
			x := make([]float64, 0, n)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeMultiplyRequest(x, body, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encode/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(resp)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, _ = AppendMultiplyResponse(resp[:0], y, 1)
			}
		})
		b.Run(fmt.Sprintf("handler/n=%d", n), func(b *testing.B) {
			s, err := NewServer(DefaultConfig(), memSession(b))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			h, _, err := s.Registry().Upload(context.Background(),
				UploadSpec{MatrixMarket: mmBody(b, matrix.Random(n, n, 5/float64(n), 7))})
			if err != nil {
				b.Fatal(err)
			}
			handler, url := s.routes(), "/v1/matrices/"+h.FP()+"/multiply"
			b.SetBytes(int64(len(body) + len(resp)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %.200s", rec.Code, rec.Body)
				}
			}
		})
	}
}
