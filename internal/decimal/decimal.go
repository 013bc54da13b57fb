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
	"math/big"
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
	v.Neg = len(b) > 0 && b[0] == '-'
	i := 0
	if v.Neg { // a conditional move, not a branch
		i = 1
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

// Pow10[e-MinPow10] is 10^e's 128-bit mantissa, rounded down with its top
// bit set, high word first, for every exponent a literal of up to 19
// digits has when its value lies in about [1e-45, 1e45]; others go to
// strconv. It is built at init from exact powers of five: 10^e is 5^e·2^e,
// and only the exponent sees the 2^e.
const MinPow10, maxPow10 = -64, 45

var Pow10 = func() (t [maxPow10 - MinPow10 + 1][2]uint64) {
	var buf [16]byte
	for e := MinPow10; e <= maxPow10; e++ {
		p := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 { // 2^(127+len)/5^-e lies strictly between 2^127 and 2^128
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+127)), p)
		}
		p.Lsh(p, 128).Rsh(p, uint(p.BitLen()-128)).FillBytes(buf[:]) // top 128 bits, rounded down
		t[e-MinPow10] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	return t
}()

// Float converts v to the float64 nearest its value, ties to even (what
// strconv.ParseFloat gives), by Eisel–Lemire (Lemire, 2021), and reports
// false where that cannot prove it: a Hard literal, an exponent outside
// Pow10, a subnormal or infinite result, or a product too near a rounding
// boundary. The mantissa at a set top bit times 10^e's high word gives the
// double's 53 bits and a rounding bit unless the bits below could carry
// into them; then the low word settles it, or strconv does.
func (v Number) Float() (float64, bool) {
	if v.Hard || v.Exp < MinPow10 || v.Exp > maxPow10 {
		return 0, false
	}
	sign := uint64(0)
	if v.Neg {
		sign = 1 << 63
	}
	if v.Mant == 0 {
		return math.Float64frombits(sign), true
	}
	z := bits.LeadingZeros64(v.Mant)
	m, p := v.Mant<<z, &Pow10[v.Exp-MinPow10]
	hi, lo := bits.Mul64(m, p[0])
	if hi&0x1ff == 0x1ff && lo+m < m { // the rounding bits are all ones and may carry
		yhi, ylo := bits.Mul64(m, p[1])
		var c uint64
		lo, c = bits.Add64(lo, yhi, 0)
		hi += c
		if hi&0x1ff == 0x1ff && lo+1 == 0 && ylo+m < m {
			return 0, false
		}
	}
	// 217706/2^16 ≈ log2 10; the product's top bit places it in the binade.
	top := hi >> 63
	mant := hi >> (top + 9)
	exp := uint64(217706*v.Exp>>16+64+1023) - uint64(z) - (1 ^ top)
	if lo == 0 && hi&0x1ff == 0 && mant&3 == 1 { // on a tie the truncation may hide
		return 0, false
	}
	mant = (mant + mant&1) >> 1 // round the 54th bit off, ties up: the tie was excluded
	carry := mant >> 53         // the rounding carried into a 54th bit
	mant, exp = mant>>carry, exp+carry
	if exp-1 >= 0x7ff-1 { // subnormal or infinite: strconv's case
		return 0, false
	}
	return math.Float64frombits(sign | exp<<52 | mant&(1<<52-1)), true
}

// IsDigit reports whether c is an ASCII decimal digit.
func IsDigit(c byte) bool { return '0' <= c && c <= '9' }
