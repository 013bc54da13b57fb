package decimal

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Scan stops where the JSON grammar does and reports where it failed, and
// Float, where it converts, gives strconv.ParseFloat's bits: around the
// eight-digit word steps (8, 16, 19 and 20 significant digits, with
// leading zeros in front), and at each conversion path's edges.
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
		_, n, err := Scan([]byte(c.in))
		if n != c.n || (err != nil) != c.bad {
			t.Errorf("Scan(%q) = %d, %v; want %d, error %v", c.in, n, err, c.n, c.bad)
		}
	}
	var lits []string
	for _, digits := range []string{"12345678", "1234567890123456", "1234567890123456789", "12345678901234567891",
		"99999999", "9999999999999999999", "10000000000000000000", "9007199254740993", "4294967296"} {
		for _, f := range []string{"%s", "-%s", "0.%s", "0.000000%s", "%se-30", "%se22", "%se23", "0.%se5"} {
			lits = append(lits, strings.Replace(f, "%s", digits, 1))
		}
	}
	lits = append(lits, "0.1", "5e-324", "1.7976931348623157e308", "0."+strings.Repeat("0", 30)+"1", "123456789.12345678")
	for _, lit := range lits {
		num, n, err := Scan([]byte(lit))
		if err != nil || n != len(lit) {
			t.Fatalf("Scan(%q) = %d, %v", lit, n, err)
		}
		want, _ := strconv.ParseFloat(lit, 64)
		if got, ok := num.Float(); ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Float %v (%#x), ParseFloat %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
