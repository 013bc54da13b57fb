package matrix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decimal"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := Random(17, 23, 0.2, 21)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !m.Equal(back) {
		t.Error("round trip changed the matrix")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 2.0
2 1 -1.0
3 3 5.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (symmetric expansion)", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 1) != -1 || d.At(1, 0) != -1 {
		t.Error("symmetric mirror entry missing")
	}
	if d.At(0, 0) != 2 || d.At(2, 2) != 5 {
		t.Error("diagonal entries wrong")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d.At(0, 1) != 1 || d.At(1, 0) != 1 {
		t.Error("pattern entries should read as 1")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad banner", "hello\n1 1 1\n1 1 1\n"},
		{"array container", "%%MatrixMarket matrix array real general\n1 1\n1.0\n"},
		{"complex field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"},
		{"missing size", "%%MatrixMarket matrix coordinate real general\n"},
		{"short entry", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n"},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"},
		{"truncated", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMatrixMarket(strings.NewReader(tc.in)); err == nil {
				t.Errorf("accepted malformed input %q", tc.in)
			}
		})
	}
}

func TestMatrixMarketIntegerField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 3
2 2 -4
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d.At(0, 0) != 3 || d.At(1, 1) != -4 {
		t.Error("integer values wrong")
	}
}

// mmLiterals returns n value literals: random doubles (uniform in [-1, 1)
// like the generator's values, any magnitude, any finite bit pattern) in
// %.17g, %g, %e and shortest exponent form, 20 to 25 significant digits,
// and the forms only strconv.ParseFloat takes.
func mmLiterals(n int) []string {
	lits := []string{"0", "-0", "+0", "0.0", "-0e0", ".5", "-.5", "5.", "+1.5", "007", "-007.25", "0001e2",
		"inf", "-Inf", "+INF", "infinity", "NaN", "nan", "0x1.8p3", "-0X1P-2", "1e-400", "4.9e-324",
		"1.7976931348623157e308", "2.2250738585072011e-308", "9007199254740993", "1E+05", "1e0000000000000000000001",
		"0." + strings.Repeat("0", 400) + "1e400", "123456789012345678901234567890e-29"}
	rng := rand.New(rand.NewSource(17))
	for len(lits) < n {
		var v float64
		switch rng.Intn(3) {
		case 0:
			v = rng.Float64()*2 - 1
		case 1:
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			for v = math.Float64frombits(rng.Uint64()); math.IsInf(v, 0) || math.IsNaN(v); {
				v = math.Float64frombits(rng.Uint64())
			}
		}
		lits = append(lits, fmt.Sprintf("%.17g", v), fmt.Sprintf("%g", v), fmt.Sprintf("%e", v),
			strconv.FormatFloat(v, 'e', -1, 64), strconv.FormatFloat(v, 'e', 19+rng.Intn(6), 64))
	}
	return lits[:n]
}

// Every value the reader keeps is strconv.ParseFloat's double, bit for
// bit, whichever path converted it, and a value ParseFloat refuses fails
// the read.
func TestMatrixMarketValuesMatchParseFloat(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	lits := mmLiterals(n)
	for _, bad := range []string{"1e400", "-1e400", "1e", "0x", "1_0", "1.5.2", "--1", "infx", "1,5", "0x1p"} {
		_, perr := strconv.ParseFloat(bad, 64)
		_, err := ParseMatrixMarket([]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 " + bad + "\n"))
		if (err == nil) != (perr == nil) {
			t.Errorf("value %q: read error %v, ParseFloat error %v", bad, err, perr)
		}
	}
	var body bytes.Buffer
	fmt.Fprintf(&body, "%%%%MatrixMarket matrix coordinate real general\n%d 1 %d\n", len(lits), len(lits))
	for i, lit := range lits {
		fmt.Fprintf(&body, "%d 1 %s\n", i+1, lit)
	}
	m, err := ParseMatrixMarket(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for i, lit := range lits {
		want, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if math.Float64bits(m.Val[i]) != math.Float64bits(want) {
			t.Fatalf("%s: read %v (%#x), ParseFloat %v (%#x)", lit, m.Val[i], math.Float64bits(m.Val[i]), want, math.Float64bits(want))
		}
		if num, k, err := decimal.Scan([]byte(lit)); err == nil && k == len(lit) {
			if _, ok := num.Float(); ok {
				fast++
			}
		}
	}
	t.Logf("%d literals, %d through the shared grammar's exact paths", len(lits), fast)
	if fast < len(lits)/20 || len(lits)-fast < len(lits)/20 {
		t.Errorf("%d of %d literals took the fast path: each path must carry 5 %%", fast, len(lits))
	}
}

// Long texts agree with the per-line reference whatever sits where:
// errors early and late, junk after the declared entries, too few
// entries, comments and blank lines through the middle, and symmetric
// expansion with duplicates, on bodies of a few MiB.
func TestMatrixMarketLongTextsMatchReference(t *testing.T) {
	const n = 60000
	lines := make([]string, n)
	rng := rand.New(rand.NewSource(5))
	for k := range lines {
		lines[k] = fmt.Sprintf("%d %d %.17g", rng.Intn(3000)+1, rng.Intn(3000)+1, rng.NormFloat64())
	}
	body := func(symmetry string, nnz int, ls []string) []byte {
		return []byte(fmt.Sprintf("%%%%MatrixMarket matrix coordinate real %s\n3000 3000 %d\n%s\n", symmetry, nnz, strings.Join(ls, "\n")))
	}
	with := func(k int, s string) []string {
		ls := append([]string(nil), lines...)
		ls[k] = s
		return ls
	}
	cases := map[string][]byte{
		"valid":          body("general", n, lines),
		"symmetric":      body("symmetric", n, lines),
		"late error":     body("general", n, with(n-3, "1 1 x")),
		"early error":    body("general", n, with(7, "0 1 1")),
		"junk after":     body("general", n-5, with(n-2, "junk")),
		"first half":     body("general", n/4, with(n-1, "junk")),
		"too few":        body("general", n+3, lines),
		"middle comment": body("general", n-2, with(n/2, "%"+lines[n/2]+"\n\n  \t")),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := ParseMatrixMarket(in)
			ref, rerr := referenceReadMatrixMarket(bytes.NewReader(in))
			if (err == nil) != (rerr == nil) {
				t.Fatalf("read %v, reference %v", err, rerr)
			}
			if err == nil {
				requireSameCSR(t, name, ref, m)
			}
		})
	}
}
