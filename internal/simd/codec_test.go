package simd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decimal"
)

// plainRef is AppendPlain's entry in Go: d's digits with the point
// frac places from the right, after "0." and zeros where they run out.
func plainRef(d uint64, frac int, neg bool) string {
	s := strconv.FormatUint(d, 10)
	switch nd := len(s); {
	case frac >= nd:
		s = "0." + strings.Repeat("0", frac-nd) + s
	case frac > 0:
		s = s[:nd-frac] + "." + s[nd-frac:]
	}
	if neg {
		s = "-" + s
	}
	return s + ","
}

// AppendPlain writes plainRef's text for every digit count, fraction
// length, sign and count of trailing zeros left unwritten, in runs of
// every length the digit pass's masked tail takes, onto any prefix, and
// leaves the prefix alone.
func TestAppendPlainMatchesReference(t *testing.T) {
	if !CodecAVX512() {
		t.Skip("no AVX-512 codec tier on this host")
	}
	rng := rand.New(rand.NewSource(3))
	var want strings.Builder
	var lay []uint32
	var g []byte
	for nd := 1; nd <= 17; nd++ {
		for frac := 0; frac <= nd+5; frac++ {
			for _, neg := range []bool{false, true} {
				d := uint64(rng.Int63n(9e16)+1e16) / pow10(17-nd)
				if rng.Intn(4) == 0 {
					d = pow10(nd - 1) // a digit and zeros
				}
				want.WriteString(plainRef(d, frac, neg))
				sign := 0
				if neg {
					sign = 1
				}
				drop := rng.Intn(25 - nd)
				lay = append(lay, uint32(frac|sign<<8|drop<<16))
				digits := fmt.Sprintf("%024s", strconv.FormatUint(d, 10)+strings.Repeat("0", drop))
				for i := 0; i < 24; i += 8 {
					group, _ := strconv.ParseUint(digits[i:i+8], 10, 64)
					g = binary.LittleEndian.AppendUint64(g, group)
				}
			}
		}
	}
	all, text := len(lay), want.String()
	for _, n := range []int{0, 1, 2, 3, 5, 8, 11, 19, all} {
		prefix := []byte("[x")
		got := AppendPlain(prefix, append(g[:24*n:24*n], make([]byte, 32)...), lay[:n])
		k := 0
		for range n {
			k += strings.IndexByte(text[k:], ',') + 1
		}
		if string(got) != "[x"+text[:k] {
			t.Fatalf("%d entries:\n got %s\nwant [x%s", n, got, text[:k])
		}
	}
}

func pow10(n int) uint64 {
	p := uint64(1)
	for ; n > 0; n-- {
		p *= 10
	}
	return p
}

// plainLit is the literal shape ScanPlain decodes.
var plainLit = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?$`)

// scanPlainRef is ScanPlain's contract in Go: from i, each literal up to
// the next ',' is decoded while it is plain, has at most 19 significant
// digits, converts by decimal.Number.Float and starts more than ScanSlack
// bytes before the end.
func scanPlainRef(b []byte, i, max int) (n, end int, x []float64) {
	for n < max && i <= len(b)-ScanSlack {
		c := bytes.IndexByte(b[i:i+32], ',')
		if c < 0 {
			break
		}
		lit := b[i : i+c]
		sig := strings.TrimLeft(strings.NewReplacer("-", "", ".", "").Replace(string(lit)), "0")
		if !plainLit.Match(lit) || len(sig) > 19 {
			break
		}
		num, _, err := decimal.Scan(lit)
		if err != nil {
			panic(err)
		}
		v, ok := num.Float()
		if !ok {
			break
		}
		x = append(x, v)
		n, i = n+1, i+c+1
	}
	return n, i, x
}

// checkScanPlain holds ScanPlain to scanPlainRef from every offset of b,
// and each float it decodes to strconv.ParseFloat's bits.
func checkScanPlain(t *testing.T, b []byte) {
	t.Helper()
	x := make([]float64, 8)
	for i := 0; i <= len(b); i++ {
		n, end := ScanPlain(b, i, x)
		rn, rend, ref := scanPlainRef(b, i, len(x))
		if !CodecAVX512() {
			rn, rend = 0, i
		}
		if n != rn || end != rend {
			t.Fatalf("%q from %d: %d literals to %d, want %d to %d", b, i, n, end, rn, rend)
		}
		for j := range x[:n] {
			if math.Float64bits(x[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("%q from %d, literal %d: %v, want %v", b, i, j, x[j], ref[j])
			}
		}
	}
}

// ScanPlain at the AVX-512 tier decodes what its contract says from every
// offset, around the grammar's edges, Eisel–Lemire's (a mantissa at 2^53,
// 19 digits either side of a rounding midpoint, where Float declines) and
// the slack at the end, and nothing below that tier.
func TestScanPlainMatchesReference(t *testing.T) {
	pad := strings.Repeat(" ", ScanSlack)
	for _, lit := range []string{"0", "-0", "0.5", "-12.25", "1", "120", "0.000001234567890123456", "1234567890123456789",
		"12345678901234567890", "0.1234567890123456789", "0.12345678901234567891", "9999999999999999999", "01", "-", "",
		".5", "1.", "1.2.3", "--1", "1-", "1e5", "1E5", "+1", " 1", "1 ", "0.0", "-0.000", "00.1", "1234567890123456789012345678901",
		"9007199254740993", "9007199254740992.5", "0.1000000000000000055511151231257827", "0.10000000000000000555",
		"1.0000000000000002220446", "0.3", "0.30000000000000004", "8.98846567431158e307", "0.000000000000000000000000000001"} {
		for _, lead := range []string{"", "7,", "-0.5,", "12345678,"} {
			for _, tail := range []string{",", ",3,", "]", ""} {
				b := []byte(lead + lit + tail + lead + lit + tail)
				checkScanPlain(t, append(b, pad...))
				checkScanPlain(t, b)
			}
		}
	}
	for _, level := range []string{"scalar", "avx2", "avx512"} {
		prev := SetLevel(level)
		n, _ := ScanPlain([]byte("1,2,3,"+pad), 0, make([]float64, 4))
		SetLevel(prev)
		want := 0
		if level == "avx512" && can.codec {
			want = 3
		}
		if n != want {
			t.Errorf("%s: %d literals decoded, want %d", level, n, want)
		}
	}
}

// FuzzScanPlain holds ScanPlain to its Go contract from every offset of
// any input, the literals straddling the slack at its end included.
func FuzzScanPlain(f *testing.F) {
	for _, s := range []string{"1,2,", "-0.5,12.25,", "0.000001,", "01,", "1e5,", "1234567890123456789,0.12345678901234567891,"} {
		f.Add([]byte(s + strings.Repeat("9,", 40)))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkScanPlain(t, b) })
}
