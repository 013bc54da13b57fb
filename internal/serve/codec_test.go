package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decimal"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
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
		// Mantissas either side of 2^53, exponents either side of the
		// conversion's table, and literals strconv must take.
		"0.1", "-2.5e-22", "1e-64", "1e-65", "1e45", "-1e46", "9007199254740992e22", "0.12345678901234567", "-123456.78901234567",
		"0.9999999999999999999", "9007199254740993", "1e23", "0.99999999999999999999",
		"1.2345678901234567e-5", "2.2250738585072011e-308", "0.30000000000000004e0",
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
		// of the differential. The Go tier answers alike, error text included.
		got, err := DecodeMultiplyRequest(nil, body, len(body))
		prev := simd.SetEnabled(false)
		goGot, goErr := DecodeMultiplyRequest(nil, body, len(body))
		simd.SetEnabled(prev)
		if fmt.Sprint(err) != fmt.Sprint(goErr) || !bitsEqual(got, goGot) {
			t.Fatalf("%q: %v, %v at the active tier; %v, %v in Go", body, got, err, goGot, goErr)
		}
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

// literalOf writes a number literal whose significant digits are digits
// (the first nonzero) with the decimal point after the point-th of them,
// in plain or exponent notation.
func literalOf(neg bool, digits string, point int, exponent bool) string {
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	switch {
	case exponent:
		b.WriteString(digits[:1])
		if len(digits) > 1 {
			b.WriteString("." + digits[1:])
		}
		fmt.Fprintf(&b, "e%d", point-1)
	case point <= 0:
		b.WriteString("0." + strings.Repeat("0", -point) + digits)
	case point >= len(digits):
		b.WriteString(digits + strings.Repeat("0", point-len(digits)))
	default:
		b.WriteString(digits[:point] + "." + digits[point:])
	}
	return b.String()
}

// digitsOf splits strconv's 'e' form of v into its significant digits and
// the point literalOf places.
func digitsOf(v float64, prec int) (string, int) {
	s := strconv.FormatFloat(math.Abs(v), 'e', prec, 64)
	mant, exp, _ := strings.Cut(s, "e")
	e, _ := strconv.Atoi(exp)
	return strings.Replace(mant, ".", "", 1), e + 1
}

// addOne returns the decimal digit string d plus one in its last place.
func addOne(d string) string {
	b := []byte(d)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < '9' {
			b[i]++
			return string(b)
		}
		b[i] = '0'
	}
	return "1" + string(b)
}

// differentialLiterals returns number literals around the edges of the
// decoder's conversion and of its strconv fallback, in plain and exponent
// notation, both signs.
func differentialLiterals(n int) []string {
	rng := rand.New(rand.NewSource(31))
	var lits []string
	add := func(digits string, point int) {
		for _, neg := range []bool{false, true} {
			for _, exponent := range []bool{false, true} {
				lits = append(lits, literalOf(neg, digits, point, exponent))
			}
		}
	}
	// Fixed edges: zeros, 2^53 ± 1, exponents at ±22 / ±23, and 10^q
	// mantissas at q = 19 / 20.
	lits = append(lits, "0", "-0", "0.0", "-0.0", "0e0", "-0e-0", "0.000000000000000000000000", "-0e400", "0e-400")
	for _, m := range []uint64{1, 9, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1e15, 1e16, 1e17, 1e19 - 1, 1e19, 1e19 + 1, math.MaxUint64} {
		digits := strconv.FormatUint(m, 10)
		for _, shift := range []int{-24, -23, -22, -21, -20, -19, -18, -1, 0, 1, 21, 22, 23, 24} {
			add(digits, len(digits)+shift)
		}
		for _, point := range []int{-2, -1, 0, 1} {
			add(digits, point)
		}
	}
	for _, d := range []string{strings.Repeat("9", 19), strings.Repeat("9", 20), "1" + strings.Repeat("0", 18) + "1", "1" + strings.Repeat("0", 19) + "1"} {
		for _, point := range []int{-1, 0, 1, 19, 20} {
			add(d, point)
		}
	}
	// 16- to 20-digit mantissas just below, at and just above 2^53·10^j,
	// and below and above 10^19 scaled to the same lengths, at every
	// exponent from -1 to -22: where a mantissa stops fitting a double and
	// then a uint64, and where Scan's second eight-digit word ends.
	for l := 16; l <= 20; l++ {
		zeros := strings.Repeat("0", l-16)
		at := "9007199254740992" + zeros
		for _, d := range []string{"9007199254740991" + strings.Repeat("9", l-16), at, addOne(at),
			strings.Repeat("9", l), "1" + strings.Repeat("0", l-2) + "1"} {
			for e := -22; e <= -1; e++ {
				add(d, len(d)+e)
			}
		}
	}
	half, mid := new(big.Float).SetPrec(2200), new(big.Float).SetPrec(2200)
	for len(lits) < n {
		var v float64
		switch rng.Intn(3) {
		case 0: // the shape of a request's entries: uniform in [-1, 1)
			v = rng.Float64()*2 - 1
		case 1: // magnitudes inside the conversion's power table
			v = rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
		default: // any finite double
			for v = math.Float64frombits(rng.Uint64()); math.IsInf(v, 0) || math.IsNaN(v); {
				v = math.Float64frombits(rng.Uint64())
			}
		}
		if v == 0 {
			continue
		}
		// The shortest form, a short one, and 17 to 20 significant digits.
		for _, prec := range []int{-1, rng.Intn(15), 16, 17, 18, 19} {
			add(digitsOf(v, prec))
		}
		// The two 19-digit decimals either side of the midpoint between v
		// and the next double up, which round to different doubles.
		up := math.Nextafter(math.Abs(v), math.Inf(1))
		if math.IsInf(up, 0) {
			continue
		}
		half.SetFloat64(math.Abs(v))
		mid.SetFloat64(up)
		mid.Add(mid, half).Quo(mid, big.NewFloat(2))
		m, exp, _ := strings.Cut(mid.Text('e', 40), "e")
		e, _ := strconv.Atoi(exp)
		digits := strings.Replace(m, ".", "", 1)
		below := digits[:19]
		add(below, e+1)
		if above := addOne(below); len(above) == 19 {
			add(above, e+1)
		} else {
			add(above[:19], e+2)
		}
		// 41 digits on the midpoint, where the 20th and later decide
		// (strconv's slow path, so for a quarter of the doubles).
		if rng.Intn(4) == 0 {
			add(digits, e+1)
			if above := addOne(digits); len(above) == len(digits) {
				add(above, e+1)
			}
		}
	}
	// An exponent too long to accumulate after 2^20 leading zeros: a decoder
	// that kept its first seven digits would read 1 (strconv, which caps
	// exponents too, reads 0).
	lits = append(lits, "0."+strings.Repeat("0", 1<<20-1)+"1e10485760")
	return lits
}

// Every decoded entry is strconv.ParseFloat's double, bit for bit, on the
// codec's own conversion and on its strconv fallback, at the edges of
// each; and each path carries a share of the literals, so neither goes
// untested.
func TestDecodeMatchesParseFloat(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	lits := differentialLiterals(n)
	atEveryLevel(t, func(t *testing.T) { decodeMatchesParseFloat(t, lits) })
}

func decodeMatchesParseFloat(t *testing.T, lits []string) {
	var paths [2]int // Eisel–Lemire, strconv
	for lo := 0; lo < len(lits); lo += 4096 {
		chunk := lits[lo:min(lo+4096, len(lits))]
		body := []byte(`{"x":[` + strings.Join(chunk, ",") + `]}`)
		got, err := DecodeMultiplyRequest(nil, body, len(chunk))
		if err != nil {
			t.Fatalf("%.200v", err)
		}
		for i, lit := range chunk {
			// Every literal is in range; the fuzz seeds hold the ones that
			// are not.
			want, err := strconv.ParseFloat(lit, 64)
			if err != nil {
				t.Fatalf("%.80s: %.80v", lit, err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%.80s: decoded %v (%#x), ParseFloat %v (%#x)", lit, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
			num, _, _ := decimal.Scan([]byte(lit))
			if _, ok := num.Float(); ok {
				paths[0]++
			} else {
				paths[1]++
			}
		}
	}
	t.Logf("%d literals: %d Eisel–Lemire, %d strconv", len(lits), paths[0], paths[1])
	for i, c := range paths {
		if c < len(lits)/20 {
			t.Errorf("path %d took %d of %d literals", i, c, len(lits))
		}
	}
}

// encodingJSON is what encoding/json writes for a multiply's success
// envelope.
func encodingJSON(tb testing.TB, y []float64, batch int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(envelope{OK: true, Data: MultiplyResponse{Y: y, Batch: batch}}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeEdges are the values where shortest formatting turns: the layout
// switches, each power of ten and two in range with its neighbours (a
// power of two's interval is lopsided), the ends of the fast path,
// integers with trailing zeros, and each digit count around a word of the
// digit writer.
func encodeEdges() []float64 {
	vs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308, 1e21, 1e22, 1e100}
	around := func(v float64) {
		vs = append(vs, math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1)))
	}
	for k := -7; k <= 21; k++ {
		around(math.Pow10(k))
	}
	for e := -21; e <= 54; e++ {
		around(math.Ldexp(1, e))
	}
	for _, n := range []uint64{1, 7, 12345, 999999, 9007199254740993 / 10} {
		for p := uint64(1); n*p < 1<<54; p *= 10 {
			vs = append(vs, float64(n*p))
		}
	}
	// Shortest forms of exactly 1, 7, 8, 9, 15, 16 and 17 digits, either
	// side of each eight-digit word the formatter stores, in each layout:
	// 0.00000ddd, 0.ddd, d.ddd, dd…d.ddd and, below 2^53, the integer. A
	// decimal that reads back as a shorter form moves up an ulp at a time.
	for _, l := range []int{1, 7, 8, 9, 15, 16, 17} {
		digits := "12345678901234567"[:l]
		for _, point := range []int{-5, 0, 1, l - 1, min(l, 16)} {
			v, _ := strconv.ParseFloat(literalOf(false, digits, point, false), 64)
			for d, _ := digitsOf(v, -1); len(d) != l; d, _ = digitsOf(v, -1) {
				v = math.Nextafter(v, math.Inf(1))
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// encodeValues returns n values from every source the differential
// draws on: encodeEdges, any finite bit pattern, products shaped like the
// wide workload's y, decimals of 1 to 17 significant digits, and doubles
// of few fraction bits (where the rounding tie between two shortest
// candidates happens).
func encodeValues(n int) []float64 {
	rng := rand.New(rand.NewSource(13))
	vs := encodeEdges()
	for _, v := range vs {
		vs = append(vs, -v)
	}
	// 5 nonzeros a row as on the wide workload, at a width matrix.Random
	// builds quickly.
	const cols = 2048
	m := matrix.Random(cols, cols, 5.0/cols, 7)
	y := make([]float64, cols)
	for seed := int64(1); len(vs) < n; seed++ {
		m.SpMV(matrix.RandomVector(cols, seed), y)
		for i := 0; i < cols && len(vs) < n; i++ {
			var v float64
			switch i % 4 {
			case 0:
				v = y[i]
			case 1:
				for v = math.Inf(1); math.IsInf(v, 0) || math.IsNaN(v); {
					v = math.Float64frombits(rng.Uint64())
				}
			case 2:
				digits := rng.Int63n(int64(math.Pow10(1 + rng.Intn(17))))
				v, _ = strconv.ParseFloat(fmt.Sprintf("%de%d", digits, rng.Intn(44)-30), 64)
			default:
				v = math.Ldexp(float64(rng.Int63n(1<<53)|1<<52), rng.Intn(80)-76)
			}
			if rng.Intn(2) == 0 {
				v = -v
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// Successful responses are byte for byte what encoding/json writes, on
// the codec's own formatter and on its strconv fallback, and each path
// carries a share of the values, so neither goes untested.
func TestAppendMultiplyResponseByteIdentity(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	vs := encodeValues(n)
	atEveryLevel(t, func(t *testing.T) { appendByteIdentity(t, vs) })
}

func appendByteIdentity(t *testing.T, vs []float64) {
	fast := 0 // values on the codec's own formatter rather than strconv
	for _, v := range vs {
		if abs := math.Abs(v); abs >= 1e-6 && abs < 1<<53 {
			fast++
		}
	}
	for lo := 0; lo < len(vs); lo += 4096 {
		y := vs[lo:min(lo+4096, len(vs))]
		batch := lo/4096%DefaultMaxBatch + 1
		got, err := AppendMultiplyResponse(nil, y, batch)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, encodingJSON(t, y, batch)) {
			continue
		}
		for _, v := range y {
			got, _ := AppendMultiplyResponse(nil, []float64{v}, 1)
			if want := encodingJSON(t, []float64{v}, 1); !bytes.Equal(got, want) {
				t.Fatalf("%v (%#x):\n got %s\nwant %s", v, math.Float64bits(v), got, want)
			}
		}
		t.Fatalf("values %d to %d differ only together", lo, lo+len(y))
	}
	t.Logf("%d values: %d on the formatter, %d on strconv", len(vs), fast, len(vs)-fast)
	if fast < len(vs)/20 || len(vs)-fast < len(vs)/20 {
		t.Errorf("a path took under 5%% of %d values: formatter %d", len(vs), fast)
	}
	if got, _ := AppendMultiplyResponse(nil, nil, 2); !bytes.Equal(got, encodingJSON(t, []float64{}, 2)) {
		t.Fatalf("empty y: got %s", got)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := AppendMultiplyResponse(nil, []float64{1, bad}, 1); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("y = [1 %v]: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

// The encoder against its reference on any vector of bit patterns: the
// bytes encoding/json writes, or ErrNonFinite where it has no JSON form.
func FuzzAppendMultiplyResponse(f *testing.F) {
	seeds := [][]float64{
		{}, {1.5e-5, 3.14159, 12300, 1e20}, // 0.000ddd, d.ddd, ddd00
		{1e-7, -2.5e-300, 1e17, 1e22, 9007199254740993, math.Copysign(0, -1)}, // strconv's cases
		{0.1, 1.0 / 3, 1125899906842624.25, math.Ldexp(1, -20), 9.999999999999999e-7, 1e-6},
		{math.NaN()}, {2, math.Inf(-1)},
	}
	classes := laneClasses()
	for _, name := range slices.Sorted(maps.Keys(classes)) {
		seeds = append(seeds, classes[name][:min(len(classes[name]), 70)])
	}
	for _, y := range seeds {
		var b []byte
		for _, v := range y {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		y := make([]float64, len(b)/8)
		finite := true
		for i := range y {
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			finite = finite && !math.IsInf(y[i], 0) && !math.IsNaN(y[i])
		}
		got, err := AppendMultiplyResponse(nil, y, 3)
		prev := simd.SetEnabled(false)
		goGot, goErr := AppendMultiplyResponse(nil, y, 3)
		simd.SetEnabled(prev)
		if fmt.Sprint(err) != fmt.Sprint(goErr) || err == nil && !bytes.Equal(got, goGot) {
			t.Fatalf("y = %v: %s, %v at the active tier; %s, %v in Go", y, got, err, goGot, goErr)
		}
		switch {
		case !finite:
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("y = %v: err = %v, want ErrNonFinite", y, err)
			}
		case err != nil:
			t.Fatalf("y = %v: %v", y, err)
		default:
			if want := encodingJSON(t, y, 3); !bytes.Equal(got, want) {
				t.Fatalf("y = %v:\n got %s\nwant %s", y, got, want)
			}
		}
	})
}

// laneClasses are the values simd.ShortestPlain's lanes must agree with
// shortest on, by what each exercises; every class is met negated too.
func laneClasses() map[string][]float64 {
	rng := rand.New(rand.NewSource(17))
	c := map[string][]float64{}
	add := func(class string, vs ...float64) {
		for _, v := range vs {
			c[class] = append(c[class], v, -v)
		}
	}
	// 1 to 17 significant digits at every scale in range: none to sixteen
	// of the search's digits dropped, and decimals whose double lies just
	// below them, which round up through a run of nines.
	for sig := 1; sig <= 17; sig++ {
		for range 64 {
			lit := fmt.Sprintf("%de%d", rng.Int63n(int64(math.Pow10(sig))), rng.Intn(22)-6-sig)
			v, _ := strconv.ParseFloat(lit, 64)
			exact, _ := new(big.Rat).SetString(lit)
			class := "decimals"
			if new(big.Rat).SetFloat64(v).Cmp(exact) < 0 {
				class = "decimals rounded up"
			}
			add(class, v)
		}
	}
	around := func(class string, v float64) {
		add(class, math.Nextafter(math.Nextafter(v, 0), 0), math.Nextafter(v, 0), v,
			math.Nextafter(v, math.Inf(1)), math.Nextafter(math.Nextafter(v, math.Inf(1)), math.Inf(1)))
	}
	for k := -6; k <= 16; k++ {
		around("powers of ten", math.Pow10(k))
	}
	for e := -19; e <= -1; e++ {
		around("2^-19 to 2^-1", math.Ldexp(1, e))
	}
	around("1e-6", 1e-6)
	around("2^53", 1<<53)
	around("2^52", 1<<52)
	add("fallback", 0, 3, 4.5e15, 1e-7, 1e300, 0.5, 1.25, 0.1, math.NaN(), math.Inf(1))
	const cols = 512
	y := make([]float64, cols)
	matrix.Random(cols, cols, 5.0/cols, 7).SpMV(matrix.RandomVector(cols, 1), y)
	add("wide workload's y", y...)
	return c
}

// searchDrop is how many of the digits shortest's search starts from its
// answer for v drops: q, the power of ten it scales by, less frac.
func searchDrop(v float64) int {
	_, frac := shortest(v)
	return (1076-int(math.Float64bits(v)>>52&0x7ff))*78913>>18 + 1 - frac
}

// checkLanes runs simd.ShortestPlain over y and holds each entry to
// shortest: its layout word and 8-digit groups where the lanes take it,
// and 0 exactly for an integer, an entry outside [1e-6, 2^53) or one that
// drops eight digits or more. It counts the entries taken by digits
// dropped, and fails if the kernel writes past y's last block of eight.
func checkLanes(t *testing.T, y []float64, drops map[int]int) {
	t.Helper()
	n8 := (len(y) + 7) &^ 7
	g := make([]byte, 24*n8+8)
	lay := make([]uint32, n8+1)
	lay[n8], g[24*n8] = 0xdead, 0xad
	simd.ShortestPlain(y, g, lay)
	if lay[n8] != 0xdead || g[24*n8] != 0xad {
		t.Fatalf("%d entries: written past %d", len(y), n8)
	}
	for j, v := range y {
		abs, want, digits := math.Abs(v), uint32(0), ""
		if abs >= 1e-6 && abs < 1<<53 && abs != math.Trunc(abs) {
			if drop := searchDrop(abs); drop < 8 {
				d, frac := shortest(abs)
				want = uint32(frac | int(math.Float64bits(v)>>63)<<8 | drop<<16)
				digits = fmt.Sprintf("%0*d%s", 24-drop, d, strings.Repeat("0", drop))
				drops[drop]++
			} else {
				drops[8]++
			}
		}
		if lay[j] != want {
			t.Fatalf("y[%d] = %v (%#x): layout %#x, want %#x", j, v, math.Float64bits(v), lay[j], want)
		}
		for i := 0; want != 0 && i < 3; i++ {
			got := binary.LittleEndian.Uint64(g[24*j+8*i:])
			if w, _ := strconv.ParseUint(digits[8*i:8*i+8], 10, 64); got != w {
				t.Fatalf("y[%d] = %v (%#x): group %d is %d, want %d", j, v, math.Float64bits(v), i, got, w)
			}
		}
	}
}

// The lane search is shortest, entry by entry, over every class of
// laneClasses, and over blocks of every length up to 70 (past one encode
// block) with a fallback entry at every position; it meets every count of
// dropped digits, and the responses built on it are encoding/json's at
// every level.
func TestShortestPlainMatchesShortest(t *testing.T) {
	defer simd.SetLevel(simd.SetLevel("avx512"))
	if !simd.CodecAVX512() {
		t.Skip("no AVX-512 codec tier on this host")
	}
	classes, drops := laneClasses(), map[int]int{}
	var all []float64
	for _, name := range slices.Sorted(maps.Keys(classes)) {
		t.Run(name, func(t *testing.T) { checkLanes(t, classes[name], drops) })
		all = append(all, classes[name]...)
	}
	t.Logf("entries by digits dropped (8: eight or more): %v", drops)
	for k := 0; k <= 8; k++ {
		if drops[k] == 0 {
			t.Errorf("no entry drops %d digits", k)
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	fallback := classes["fallback"]
	tails := func(f func(y []float64)) {
		y := make([]float64, 0, 70)
		for n := 1; n <= cap(y); n++ {
			for p := range n {
				y = append(y[:0], all[n*p%(len(all)-cap(y)):][:n]...)
				y[p] = fallback[(n+p)%len(fallback)]
				f(y)
			}
		}
	}
	tails(func(y []float64) { checkLanes(t, y, drops) })
	atEveryLevel(t, func(t *testing.T) {
		tails(func(y []float64) {
			got, err := AppendMultiplyResponse(nil, y, 1)
			if err != nil {
				if !errors.Is(err, ErrNonFinite) || !slices.ContainsFunc(y, func(v float64) bool { return v-v != 0 }) {
					t.Fatalf("y = %v: %v", y, err)
				}
			} else if want := encodingJSON(t, y, 1); !bytes.Equal(got, want) {
				t.Fatalf("y = %v:\n got %s\nwant %s", y, got, want)
			}
		})
	})
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

// atEveryLevel runs f under each SIMD cap, the codec's AVX-512 tier and
// its Go path, and restores the boot cap.
func atEveryLevel(t *testing.T, f func(t *testing.T)) {
	defer simd.SetLevel(simd.SetLevel("auto"))
	for _, level := range []string{"avx512", "avx2", "scalar"} {
		simd.SetLevel(level)
		t.Run(level, f)
	}
}

// On warm buffers a decode and an encode allocate nothing, at the width
// where the codec is the request, at every SIMD level.
func TestMultiplyCodecZeroAllocs(t *testing.T) {
	atEveryLevel(t, codecZeroAllocs)
}

func codecZeroAllocs(t *testing.T) {
	const n = 50000
	body := wideRequest(t, n)
	x := make([]float64, 0, n)
	// A second y puts every third entry on the strconv fallback, below
	// 1e-6 or at 2^53 and above.
	mixed := matrix.RandomVector(n, 52)
	for i := 0; i < n; i += 3 {
		mixed[i] *= []float64{1e-9, 1e17, 1e25}[i/3%3]
	}
	resp, _ := AppendMultiplyResponse(nil, mixed, 1)
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if x, err = DecodeMultiplyRequest(x, body, n); err != nil || len(x) != n {
			t.Fatalf("decode: %d entries, %v", len(x), err)
		}
		for _, y := range [][]float64{x, mixed} {
			if resp, err = AppendMultiplyResponse(resp[:0], y, 1); err != nil {
				t.Fatal(err)
			}
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
	h := holdFormat(naiveCSR(m))
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
// the trajectory benchmark serves: the decode, the encode of a random y
// and of the A·x the daemon serves, and a whole request through the
// handler.
func BenchmarkMultiplyCodec(b *testing.B) {
	for _, n := range []int{3000, 50000} {
		body := wideRequest(b, n)
		// The served y is A·x over the wide workload's shape, 5 nonzeros a
		// row; a RandomVector y prints shorter and flatters the encoder.
		m := matrix.Random(n, n, 5/float64(n), 7)
		ax := make([]float64, n)
		m.SpMV(matrix.RandomVector(n, 50), ax)
		y := matrix.RandomVector(n, 51)
		resp, _ := AppendMultiplyResponse(nil, ax, 1)

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
			reportPerFloat(b, n)
		})
		for _, enc := range []struct {
			name string
			y    []float64
		}{{"encode", y}, {"encode-ax", ax}} {
			b.Run(fmt.Sprintf("%s/n=%d", enc.name, n), func(b *testing.B) {
				b.SetBytes(int64(len(resp)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resp, _ = AppendMultiplyResponse(resp[:0], enc.y, 1)
				}
				reportPerFloat(b, n)
			})
		}
		b.Run(fmt.Sprintf("handler/n=%d", n), func(b *testing.B) {
			s, err := NewServer(DefaultConfig(), memSession(b))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			h, _, err := s.Registry().Upload(context.Background(), UploadSpec{MatrixMarket: mmBody(b, m)})
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

// reportPerFloat reports a codec benchmark's time per vector entry, which
// compares across widths and encodings where ns/op does not.
func reportPerFloat(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/float")
}
