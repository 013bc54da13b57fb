package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// uploadSeeds are upload bodies at the edges of the walker: escapes in the
// MatrixMarket text and in member names, the case-folded name, null and
// non-string values, repeated members, both sources, and broken JSON.
func uploadSeeds() []string {
	const mm = `%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 100\n2 2 2\n3 3 0.5\n`
	return []string{
		`{"matrixmarket":"` + mm + `"}`,
		`{"name":"a","matrixmarket":"` + mm + `","k":2,"probe":true,"tune":true,"updatable":true}`,
		`{"matrixmarket":"%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n% 😀 \ud800 é\/\"\\\n1 1 -0.5e1\n"}`,
		`{"matrixmarket":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1\t1\t1\n"}`,
		`{"MatrixMarket":"` + mm + `"}`,
		`{"matrixmarKet":"` + mm + `"}`,
		`{"matrixmarket":null}`, `{"matrixmarket":""}`, `{"matrixmarket":5}`, `{"matrixmarket":["x"]}`,
		`{"matrixmarket":"` + mm + `","matrixmarket":null}`,
		`{"matrixmarket":"x","matrixmarket":"` + mm + `"}`,
		`{"generator":{"rows":10,"cols":10,"avgnnzperrow":2,"seed":1},"name":"g"}`,
		`{"generator":{"rows":10},"matrixmarket":"` + mm + `"}`,
		`{"generator":"x"}`, `{"k":"2"}`, `{"k":1.5}`, `{"NAME":"n","Updatable":true}`,
		`{}`, `null`, `[]`, `"x"`, ``, `{`, `{"matrixmarket":"x"`, `{"matrixmarket":"x"}x`,
		`{"matrixmarket":"\q"}`, `{"matrixmarket":"\u12g4"}`, "{\"matrixmarket\":\"\x01\"}",
		`{"matrixmarket":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e400\n"}`,
		`{"matrixmarket":"%%MatrixMarket matrix coordinate real symmetric\n99999999 99999999 1\n1 1 1\n"}`,
		`{"matrixmarket":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n"}`,
	}
}

// foldedName reports whether a body encoding/json accepts falls under the
// walker's narrowing: a top-level member name that folds onto
// "matrixmarket" without being it.
func foldedName(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		key, _ := dec.Token()
		if k, _ := key.(string); k != "matrixmarket" && strings.EqualFold(k, "matrixmarket") {
			return true
		}
		var raw json.RawMessage
		if dec.Decode(&raw) != nil {
			return false
		}
	}
	return false
}

// The walker against its reference, json.Unmarshal into UploadSpec: the
// same verdict (typed 400 or a hostable spec), but for the documented
// narrowing; the same fields; and
// the same MatrixMarket verdict and CSR bits, the walker's in-place text
// against encoding/json's string. FuzzReadMatrixMarket holds the reader
// itself to the per-line reference reader.
func FuzzDecodeUpload(f *testing.F) {
	for _, s := range uploadSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		defer func(prev int) { matrix.MMMaxDim = prev }(matrix.MMMaxDim)
		matrix.MMMaxDim = 1 << 12

		var want UploadSpec
		jerr := json.Unmarshal(body, &want)
		spec, mm, err := DecodeUpload(bytes.Clone(body))
		switch {
		case err != nil && !errors.Is(err, ErrBadRequest):
			t.Fatalf("%q: %v, want a bad request", body, err)
		case jerr != nil && err == nil:
			t.Fatalf("walker accepted %q, encoding/json rejects it: %v", body, jerr)
		case jerr == nil && err != nil && !foldedName(body) && (want.MatrixMarket != "") != (want.Generator != nil):
			// (A spec with no source or both, such as null, is a 400 either way.)
			t.Fatalf("walker rejected %q (%v), encoding/json accepts it", body, err)
		case jerr != nil || err != nil:
			return
		}
		text := want.MatrixMarket
		want.MatrixMarket = ""
		if !reflect.DeepEqual(spec, want) {
			t.Fatalf("%q: spec %+v, encoding/json %+v", body, spec, want)
		}
		if (len(mm) > 0) != (text != "") {
			t.Fatalf("%q: matrixmarket %q, encoding/json %q", body, mm, text)
		}
		if text == "" {
			return
		}
		got, gerr := matrix.ParseMatrixMarket(mm)
		ref, rerr := matrix.ParseMatrixMarket([]byte(text))
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("%q: walker's text reads %v, encoding/json's %v", body, gerr, rerr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(got.RowPtr, ref.RowPtr) || !reflect.DeepEqual(got.ColIdx, ref.ColIdx) || len(got.Val) != len(ref.Val) {
			t.Fatalf("%q: structure differs", body)
		}
		for k := range got.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(ref.Val[k]) {
				t.Fatalf("%q: value %d = %v, encoding/json's text %v", body, k, got.Val[k], ref.Val[k])
			}
		}
	})
}

// The MatrixMarket text is decoded over the body's own bytes, and a name
// encoding/json would fold onto the member is a typed 400.
func TestDecodeUploadInPlace(t *testing.T) {
	body := []byte(`{"name":"m","matrixmarket":"a\nbé😀c"}`)
	spec, mm, err := DecodeUpload(body)
	if err != nil || spec.Name != "m" || string(mm) != "a\nbé😀c" {
		t.Fatalf("spec %+v, text %q, err %v", spec, mm, err)
	}
	if start := bytes.Index(body, []byte("a\nb")); start < 0 || &body[start] != &mm[0] {
		t.Fatal("the text was copied, not decoded in place")
	}
	for _, name := range []string{"MatrixMarket", "MATRIXMARKET", "matrixmarKet"} {
		_, _, err := DecodeUpload([]byte(`{"` + name + `":"x"}`))
		if status, code := StatusOf(err); status != 400 || code != "bad_request" {
			t.Errorf("%q: %v (%d %s), want 400 bad_request", name, err, status, code)
		}
	}
}

// BenchmarkIngest times an upload of serve-wide's shape (50 000² × 5
// nonzeros per row, seed 1) from request body to CSR, DecodeUpload then
// matrix.ParseMatrixMarket, beside the roof of any one-scan parser: one
// sequential pass over the same body (bytes.Count). Both report MB/s of
// body; ingest's allocations are reported per op.
func BenchmarkIngest(b *testing.B) {
	m, err := gen.Generate(gen.Params{Rows: 50000, Cols: 50000, AvgNNZPerRow: 5, StdNNZPerRow: 1.25,
		SkewCoeff: 4, BWScaled: 0.3, CrossRowSim: 0.4, AvgNumNeigh: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(UploadSpec{Name: "serve-wide", MatrixMarket: mmBody(b, m)})
	if err != nil {
		b.Fatal(err)
	}
	work := make([]byte, len(body))
	b.Run("ingest", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work, body) // the walker decodes in place
			b.StartTimer()
			_, mm, err := DecodeUpload(work)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := matrix.ParseMatrixMarket(mm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roof", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			bytes.Count(body, []byte{'\n'})
		}
	})
}
