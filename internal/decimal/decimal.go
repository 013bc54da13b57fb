// Package decimal is the repository's one number grammar: it scans a JSON
// number literal, accumulating its value on the same pass, and converts it
// to the float64 strconv.ParseFloat would return by an exact fast path
// where one applies. The multiply codec (internal/serve) and the
// MatrixMarket reader (internal/matrix) both read numbers through it;
// whatever it declines goes to strconv.ParseFloat.
package decimal

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// Number is a scanned literal: its value is ±Mant × 10^Exp, exactly,
// unless Hard is set.
type Number struct {
	Mant uint64
	Exp  int
	Neg  bool
	// Hard marks a literal the fast paths must leave to strconv: a nonzero
	// digit past the 19th significant one (Mant is truncated), or an
	// exponent too long to accumulate.
	Hard bool
}

// maxMantDigits is the most significant digits a uint64 always holds.
const maxMantDigits = 19

// Scan consumes one JSON number at the start of b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, accumulating its value
// on the way so the bytes are read once. It returns the number and how
// many bytes it consumed; on a grammar error, the offset of the offending
// byte (0 when b does not start a number).
func Scan(b []byte) (v Number, n int, err error) {
	i := 0
	if i < len(b) && b[i] == '-' {
		v.Neg = true
		i++
	}
	nd := 0 // significant digits in Mant; leading zeros are not
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		v.Mant, nd, i = eightDigits(b, i, 0, 0)
		for ; i < len(b) && IsDigit(b[i]); i++ {
			if nd < maxMantDigits {
				v.Mant = v.Mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				v.Exp++
				if b[i] != '0' {
					v.Hard = true
				}
			}
		}
	default:
		return v, 0, errors.New("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !IsDigit(b[i]) {
			return v, i, errors.New("expected a digit after the decimal point")
		}
		if v.Mant == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				v.Exp--
			}
		}
		whole := nd
		v.Mant, nd, i = eightDigits(b, i, v.Mant, nd)
		for ; i < len(b) && IsDigit(b[i]); i++ {
			if nd < maxMantDigits {
				v.Mant = v.Mant*10 + uint64(b[i]-'0')
				nd++
			} else if b[i] != '0' {
				v.Hard = true
			}
		}
		v.Exp -= nd - whole
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !IsDigit(b[i]) {
			return v, i, errors.New("expected a digit in the exponent")
		}
		e := 0
		for ; i < len(b) && IsDigit(b[i]); i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			} else {
				v.Hard = true
			}
		}
		if neg {
			e = -e
		}
		v.Exp += e
	}
	return v, i, nil
}

// eightDigits accumulates the digits at b[i:] onto mant (nd significant
// digits so far) eight at a time, while all eight are digits and mant has
// room for them; the caller's loop takes the rest one at a time. The eight
// bytes are one little-endian word: a byte is a digit when its high
// nibble is 3 and adding 6 keeps it 3, and three multiplies combine the
// digits pairwise (Lemire, "Number parsing at a gigabyte per second").
func eightDigits(b []byte, i int, mant uint64, nd int) (uint64, int, int) {
	for nd+8 <= maxMantDigits && len(b)-i >= 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		if x&0xf0f0f0f0f0f0f0f0|(x+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 != 0x3333333333333333 {
			break
		}
		x -= 0x3030303030303030
		x = x*10 + x>>8 // byte pairs 2k, 2k+1 now hold their two-digit value in byte 2k
		x = (x&0x000000ff000000ff*(100+1000000<<32) + x>>16&0x000000ff000000ff*(1+10000<<32)) >> 32
		mant = mant*1e8 + x
		nd += 8
		i += 8
	}
	return mant, nd, i
}

// Exact powers of ten: every 10^k with k ≤ 22 is a float64 (5^22 < 2^53),
// and every 10^k with k ≤ 19 a uint64.
var (
	pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// Float converts v to the float64 nearest its value, ties to even — the
// result strconv.ParseFloat gives — by the first of two exact paths that
// applies, and reports false when neither does.
//
// (i) Clinger (PLDI 1990): a mantissa of at most 2^53 and a power of ten of
// at most 10^22 are both exact doubles, so one correctly rounded multiply
// or divide is the correctly rounded value.
//
// (ii) Long division: any other mantissa over 10^q, q ≤ 19, is one exact
// 128-by-64-bit division (quotient) rounded once.
func (v Number) Float() (float64, bool) {
	var f float64
	switch {
	case v.Hard:
		return 0, false
	case v.Mant <= 1<<53 && -len(pow10f) < v.Exp && v.Exp < len(pow10f):
		f = float64(v.Mant)
		if v.Exp < 0 {
			f /= pow10f[-v.Exp]
		} else {
			f *= pow10f[v.Exp]
		}
	case -len(pow10u) < v.Exp && v.Exp < 0: // so v.Mant > 2^53
		f = quotient(v.Mant, pow10u[-v.Exp])
	default:
		return 0, false
	}
	if v.Neg {
		f = -f
	}
	return f, true
}

// quotient returns m/p rounded to nearest, ties to even, for m > 0 and p a
// power of ten in [10, 10^19]; m/p lies in [10^-19, 2^64/10], far from
// subnormals and overflow. With both operands shifted to a set top bit, the
// 128-bit dividend m·2^64 (or m·2^63 when m ≥ p) gives a 64-bit quotient q
// with its top bit set and a remainder r, and m/p = (q + r/p)·2^e exactly.
// The float keeps q's top 53 bits; the 11 below, and r as a sticky bit,
// round them.
func quotient(m, p uint64) float64 {
	s := bits.LeadingZeros64(p)
	z := bits.LeadingZeros64(m)
	p, m = p<<s, m<<z
	e := s - z - 64
	hi, lo := m, uint64(0)
	if m >= p { // keep hi < p, the divide's precondition
		hi, lo = m>>1, m<<63
		e++
	}
	q, r := bits.Div64(hi, lo, p)
	const drop = 64 - 53
	low := q & (1<<drop - 1)
	q >>= drop
	e += drop
	if low > 1<<(drop-1) || low == 1<<(drop-1) && (r != 0 || q&1 != 0) {
		q++
		if q == 1<<53 {
			q >>= 1
			e++
		}
	}
	// q·2^e with q in [2^52, 2^53): biased exponent e+52+1023, implicit
	// leading bit dropped.
	return math.Float64frombits(uint64(e+52+1023)<<52 | q&(1<<52-1))
}

// IsDigit reports whether c is an ASCII decimal digit.
func IsDigit(c byte) bool { return '0' <= c && c <= '9' }
