package decimal_test

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decimal"
	"repro/internal/simd"
)

// Scan stops where the JSON grammar does and reports where it failed, and
// Float, where it converts, gives strconv.ParseFloat's bits: around the
// eight-digit word steps (8, 16, 19 and 20 significant digits, with
// leading zeros in front), around 2^53 and 10^19, and at both ends of the
// power table.
func TestScanAndFloat(t *testing.T) {
	for _, c := range []struct {
		in  string
		n   int
		bad bool
	}{
		{"0", 1, false}, {"-0.5e-3,", 7, false}, {"01", 1, false}, {"1.5x", 3, false}, {"7E+2]", 4, false},
		{"", 0, true}, {"-", 0, true}, {"+1", 0, true}, {".5", 0, true}, {"1.", 2, true}, {"1.e3", 2, true},
		{"1e", 2, true}, {"1e+", 3, true}, {"-x", 0, true},
	} {
		_, n, err := decimal.Scan([]byte(c.in))
		if n != c.n || (err != nil) != c.bad {
			t.Errorf("Scan(%q) = %d, %v; want %d, error %v", c.in, n, err, c.n, c.bad)
		}
	}
	var lits []string
	for _, digits := range []string{"12345678", "1234567890123456", "1234567890123456789", "12345678901234567891",
		"99999999", "9999999999999999999", "10000000000000000000", "9007199254740993", "4294967296"} {
		for _, f := range []string{"%s", "-%s", "0.%s", "0.000000%s", "%se-30", "%se22", "%se23", "0.%se5",
			"%se-64", "%se-65", "%se45", "%se46"} {
			lits = append(lits, strings.Replace(f, "%s", digits, 1))
		}
	}
	lits = append(lits, "0.1", "5e-324", "1.7976931348623157e308", "0."+strings.Repeat("0", 30)+"1", "123456789.12345678")
	for _, lit := range lits {
		num, n, err := decimal.Scan([]byte(lit))
		if err != nil || n != len(lit) {
			t.Fatalf("Scan(%q) = %d, %v", lit, n, err)
		}
		want, _ := strconv.ParseFloat(lit, 64)
		if got, ok := num.Float(); ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Float %v (%#x), ParseFloat %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// Scan consumes exactly what the JSON number grammar matches, and where it
// fails it stops on a fraction or exponent the grammar cannot complete;
// Float, where it converts, gives strconv.ParseFloat's bits for the
// consumed literal and declines whatever ParseFloat refuses; and the
// AVX-512 tier's block scanner (simd.ScanPlain), from any offset and with
// a literal in the slack at the end, decodes a literal only as Scan and
// Float do. The seeds end
// runs of 1 to 24 digits at every offset of an eight-byte word: at the end
// of the input, before bytes 0xFA-0xFF (which carry out of a byte when the
// word test adds 6 to each), and before '.', 'e' and ','; behind a
// four-digit whole part a word starts at the 12th digit, the last that
// leaves room for eight more.
func FuzzScan(f *testing.F) {
	for l := 1; l <= 24; l++ {
		run := "123456789012345678901234"[:l]
		for _, end := range []string{"", "\xfa", "\xfb", "\xfc", "\xfd", "\xfe", "\xff", ".", "e", ","} {
			for _, lead := range []string{"", "-0.", "9.", "9999.", "0.0000"} {
				f.Add([]byte(lead + run + end))
			}
		}
	}
	grammar := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	pad := strings.Repeat(",", simd.ScanSlack-1)
	f.Fuzz(func(t *testing.T, b []byte) {
		var one [1]float64
		for _, in := range [][]byte{b, append(b[:len(b):len(b)], pad...)} {
			for i := range in {
				if k, end := simd.ScanPlain(in, i, one[:]); k == 1 {
					num, n, err := decimal.Scan(in[i:])
					v, ok := num.Float()
					if err != nil || i+n+1 != end || in[i+n] != ',' || !ok || math.Float64bits(v) != math.Float64bits(one[0]) {
						t.Fatalf("%q from %d: ScanPlain %v to %d, Scan %+v, %d bytes, %v", in, i, one[0], end, num, n, err)
					}
				}
			}
		}
		num, n, err := decimal.Scan(b)
		m := len(grammar.Find(b))
		if err != nil {
			// Nothing matched, or a match stopped on a '.', 'e' or 'E' with no
			// digit where Scan stopped, at most a sign past it.
			if m == 0 && n == 0 {
				return
			}
			if n <= m || n > m+2 || !strings.ContainsRune(".eE", rune(b[m])) || n < len(b) && decimal.IsDigit(b[n]) {
				t.Fatalf("Scan(%q) failed at %d (%v); the grammar matches %d bytes", b, n, err, m)
			}
			return
		}
		if n != m {
			t.Fatalf("Scan(%q) consumed %d bytes; the grammar matches %d", b, n, m)
		}
		want, perr := strconv.ParseFloat(string(b[:n]), 64)
		got, ok := num.Float()
		switch {
		case !ok: // strconv's to convert or refuse
		case perr != nil:
			t.Fatalf("%q: Float %v where ParseFloat fails: %v", b[:n], got, perr)
		case math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: Float %v (%#x), ParseFloat %v (%#x)", b[:n], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
