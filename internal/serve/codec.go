package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/decimal"
	"repro/internal/formats"
	"repro/internal/simd"
)

// The multiply endpoint's wire codec. A request is {"x":[numbers]} and a
// response {"ok":true,"data":{"y":[numbers],"batch":N}}; at 50 000 columns
// each is about a megabyte of decimal text around a half-millisecond
// kernel, so the round trip is hand-written: one pass over the bytes, no
// reflection, and every buffer a request needs recycled per hosted matrix.
//
// Buffer ownership. A request's pooled x and y return to the pool only on
// the path that ran its own kernel call or received its batch's
// batchResult. A queued caller that leaves on ctx.Done() abandons its
// buffers to the garbage collector: its batch may still gather from p.x
// or scatter into p.y for the request's siblings.

var (
	// ErrTooLarge reports a request body over its endpoint's bound.
	ErrTooLarge = errors.New("serve: request body too large")
	// ErrNonFinite reports a product with an infinite or NaN entry, which
	// JSON cannot carry.
	ErrNonFinite = errors.New("serve: result is not finite")
)

const (
	// maxBodyBytes bounds the upload and cells bodies (matrices arrive
	// inline).
	maxBodyBytes = 1 << 30
	// maxPresize is the most a declared Content-Length allocates before a
	// byte has arrived; a longer body grows its buffer as it is received.
	maxPresize = 16 << 20
	// A multiply body is bounded by the matrix it addresses: no float64
	// needs more than 25 bytes of JSON, so multiplyBytesPerCol leaves room
	// for a separator and whitespace per entry and multiplyBodySlack for
	// the member name and brackets.
	multiplyBytesPerCol = 32
	multiplyBodySlack   = 64
	// maxDepth is encoding/json's nesting limit; skipped members honour it
	// so the codec rejects what encoding/json rejects.
	maxDepth = 10000
)

// multiplyBufs is the working set of one multiply request: the raw body,
// the decoded x, the product y, the encoded response and the request's
// stage clock.
type multiplyBufs struct {
	body  []byte
	x, y  []float64
	resp  []byte
	clock stageClock
}

// readBody reads r's body into buf (reusing its capacity), sized from
// Content-Length when the client declared one. A body over limit is
// refused with ErrTooLarge — from the declaration alone, before reading,
// when there is one.
func readBody(r *http.Request, buf []byte, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return buf, fmt.Errorf("%w: %d bytes declared, limit %d", ErrTooLarge, r.ContentLength, limit)
	}
	// One spare byte lets a body of exactly the declared length reach EOF
	// without growing the buffer.
	if want := int(min(r.ContentLength, maxPresize)) + 1; cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, fmt.Errorf("%w: limit %d bytes", ErrTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("%w: read body: %v", ErrBadRequest, err)
		}
	}
}

// DecodeMultiplyRequest parses a multiply request body, appending the
// entries of its "x" member to x[:0] and returning the extended slice.
// It accepts what json.Unmarshal into MultiplyRequest accepts — any
// whitespace, unknown members of any shape, a repeated "x" (the last one
// wins) — with two narrowings, both a bad request here: a member named
// "X" (encoding/json would fold its case onto x), and null in place of
// the object, the array or an entry (encoding/json would leave a zero).
// Each number is checked against the JSON grammar and converted in place.
// The entry after cols ends decoding with formats.ErrDimension, so a
// hostile tail is never parsed; a short x is the caller's to refuse.
func DecodeMultiplyRequest(x []float64, body []byte, cols int) ([]float64, error) {
	d := decoder{b: body}
	x, err := d.request(x[:0], cols)
	if err != nil {
		return x, err
	}
	if d.space(); d.i != len(d.b) {
		return x, d.errorf("trailing data after the request object")
	}
	return x, nil
}

// DecodeUpload parses an upload body: what json.Unmarshal into UploadSpec
// accepts, but for the "matrixmarket" member, which is not copied into the
// spec. Its text is unescaped in place over body (no JSON escape decodes
// to more bytes than its spelling) and returned as mm, for
// matrix.ParseMatrixMarket; the other members go through json.Unmarshal.
// One narrowing, a bad request here: a member name encoding/json would
// fold onto "matrixmarket", such as "MatrixMarket".
func DecodeUpload(body []byte) (spec UploadSpec, mm []byte, err error) {
	d := decoder{b: body}
	rest := []byte{'{'}
	var name []byte
	err = d.members('{', func(raw []byte) error {
		name = unquote(name[:0], raw)
		if string(name) == "matrixmarket" && d.peek() == '"' {
			start := d.i + 1
			if err := d.str(); err != nil {
				return err
			}
			mm = unquote(d.b[start:start], d.b[start:d.i-1])
			return nil
		}
		if string(name) != "matrixmarket" && bytes.EqualFold(name, []byte("matrixmarket")) {
			return d.errorf(`member %q: the name is "matrixmarket"`, name)
		}
		start := d.i
		if err := d.skip(1); err != nil {
			return err
		}
		if len(rest) > 1 {
			rest = append(rest, ',')
		}
		rest = append(append(append(append(rest, '"'), raw...), '"', ':'), d.b[start:d.i]...)
		return nil
	})
	if d.space(); err == nil && d.i != len(d.b) {
		err = d.errorf("trailing data after the upload object")
	} else if err == nil {
		if jerr := json.Unmarshal(append(rest, '}'), &spec); jerr != nil {
			err = fmt.Errorf("%w: %v", ErrBadRequest, jerr)
		}
	}
	return spec, mm, err
}

// unquote appends the decoding of raw, string contents str has validated,
// to dst the way encoding/json decodes them, less its replacement of
// invalid UTF-8. dst may be raw[:0]: no escape decodes to more bytes than
// its spelling, so no byte is overwritten before it is read.
func unquote(dst, raw []byte) []byte {
	hex4 := func(b []byte) rune { u, _ := strconv.ParseUint(string(b[:4]), 16, 16); return rune(u) }
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			return append(dst, raw...)
		}
		dst = append(dst, raw[:k]...)
		c := raw[k+1]
		raw = raw[k+2:]
		switch c {
		case 'b', 'f', 'n', 'r', 't':
			dst = append(dst, "\b\f\n\r\t"[strings.IndexByte("bfnrt", c)])
		case 'u':
			r := hex4(raw)
			raw = raw[4:]
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(raw) >= 6 && raw[0] == '\\' && raw[1] == 'u' {
					r2 = hex4(raw[2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					raw = raw[6:]
				}
			}
			dst = utf8.AppendRune(dst, r)
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
	}
}

// decoder is a cursor over one request body.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrBadRequest, d.i, fmt.Sprintf(format, args...))
}

// space advances past JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at end of input (no
// JSON token starts with NUL, so 0 falls through every switch to an error).
func (d *decoder) peek() byte {
	d.space()
	if d.i == len(d.b) {
		return 0
	}
	return d.b[d.i]
}

// expect consumes the byte c after optional whitespace.
func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("expected %q", c)
	}
	d.i++
	return nil
}

// request parses the top-level object.
func (d *decoder) request(x []float64, cols int) ([]float64, error) {
	err := d.members('{', func(name []byte) (err error) {
		switch string(name) {
		case "x", `\u0078`:
			x, err = d.vector(x[:0], cols)
		case "X", `\u0058`:
			err = d.errorf(`member "X": the name is "x"`)
		default:
			err = d.skip(1)
		}
		return err
	})
	return x, err
}

// members walks one JSON object or array (open is '{' or '['). For each
// member it calls each with the name's raw bytes (between the quotes,
// escapes as spelled; nil in an array) and the cursor on the value, which
// each must consume.
func (d *decoder) members(open byte, each func(name []byte) error) error {
	if err := d.expect(open); err != nil {
		return err
	}
	closer := open + 2 // '{'+2 == '}', '['+2 == ']'
	if d.peek() == closer {
		d.i++
		return nil
	}
	for {
		var name []byte
		if open == '{' {
			if d.peek() != '"' {
				return d.errorf("expected a member name")
			}
			start := d.i + 1
			if err := d.str(); err != nil {
				return err
			}
			name = d.b[start : d.i-1]
			if err := d.expect(':'); err != nil {
				return err
			}
		}
		if err := each(name); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case closer:
			d.i++
			return nil
		default:
			return d.errorf("expected ',' or %q", closer)
		}
	}
}

// vector parses an array of numbers into x.
func (d *decoder) vector(x []float64, cols int) ([]float64, error) {
	if err := d.expect('['); err != nil {
		return x, d.errorf(`"x" must be an array of numbers`)
	}
	if d.peek() == ']' {
		d.i++
		return x, nil
	}
	for {
		// A run of plain literals is decoded a block at a time at the AVX-512
		// tier; the literal it stops on is the per-literal path's below.
		if simd.CodecAVX512() && len(x) < cols {
			x = slices.Grow(x, min(64, cols-len(x)))
			n, end := simd.ScanPlain(d.b, d.i, x[len(x):min(cap(x), cols)])
			if x, d.i = x[:len(x)+n], end; n > 0 {
				continue
			}
		}
		d.space()
		start := d.i
		num, err := d.number()
		if err != nil {
			return x, err
		}
		if len(x) == cols {
			return x, fmt.Errorf("%w: x has more than %d entries, matrix has %d columns",
				formats.ErrDimension, cols, cols)
		}
		v, ok := num.Float()
		if !ok {
			lit := d.b[start:d.i]
			// The literal is valid JSON, so ParseFloat can only fail on range.
			if v, err = strconv.ParseFloat(unsafe.String(&lit[0], len(lit)), 64); err != nil {
				d.i = start
				return x, d.errorf("number %s out of range", lit)
			}
		}
		x = append(x, v)
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return x, nil
		default:
			return x, d.errorf("expected ',' or ']'")
		}
	}
}

// number consumes one JSON number; internal/decimal holds the grammar.
func (d *decoder) number() (decimal.Number, error) {
	v, n, err := decimal.Scan(d.b[d.i:])
	d.i += n
	if err != nil {
		return v, d.errorf("%v", err)
	}
	return v, nil
}

func isHex(c byte) bool {
	return decimal.IsDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes one JSON string, opening quote included, validating its
// escapes and control characters the way encoding/json's scanner does.
func (d *decoder) str() error {
	b := d.b
	for i := d.i + 1; i < len(b); i++ {
		for len(b)-i >= 8 && plain8(b[i:]) {
			i += 8
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return nil
		case c < 0x20:
			d.i = i
			return d.errorf("control character in string")
		case c == '\\':
			i++
			if i == len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					d.i = i
					return d.errorf(`invalid \u escape`)
				}
				i += 4
			default:
				d.i = i
				return d.errorf("invalid escape")
			}
		}
	}
	d.i = len(b)
	return d.errorf("unterminated string")
}

// plain8 reports whether none of b's first eight bytes is a quote, a
// backslash or a control character, testing the eight as one word: v has
// a byte under n when (v - n·0x01…01) &^ v has a high bit set.
func plain8(b []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	x := binary.LittleEndian.Uint64(b)
	q, s := x^(ones*'"'), x^(ones*'\\')
	return ((x-ones*0x20)&^x|(q-ones)&^q|(s-ones)&^s)&highs == 0
}

// skip consumes one JSON value of any shape — an unknown member's — at
// nesting depth depth, validating it as it goes.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		return d.str()
	case c == '-' || decimal.IsDigit(c):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '{' || c == '[':
		if depth == maxDepth {
			return d.errorf("exceeded max depth")
		}
		return d.members(c, func([]byte) error { return d.skip(depth + 1) })
	default:
		return d.errorf("expected a value")
	}
}

// literal consumes the keyword lit.
func (d *decoder) literal(lit string) error {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return d.errorf("invalid literal")
	}
	d.i += len(lit)
	return nil
}

// AppendMultiplyResponse appends the success envelope of a multiply to
// dst, byte for byte what encoding/json writes for
// envelope{OK: true, Data: MultiplyResponse{Y: y, Batch: batch}}, trailing
// newline included. A y with an infinite or NaN entry has no JSON form
// and returns ErrNonFinite.
//
// y goes a block at a time, each entry followed by a comma. At the
// AVX-512 codec tier a first pass finds the shortest digits of each entry
// in the codec formatter's range, as three 8-digit groups, and
// simd.AppendPlain writes each run of them at once; appendFloat writes
// the other entries, and every entry below that tier.
func AppendMultiplyResponse(dst []byte, y []float64, batch int) ([]byte, error) {
	dst = append(dst, `{"ok":true,"data":{"y":[`...)
	var g [24*encodeBlock + 32]byte // simd.AppendPlain reads 32 bytes past the last entry
	var lay [encodeBlock]uint32     // fraction digits | sign<<8 | 1<<16; 0 for appendFloat
	tier := simd.CodecAVX512()
	for lo := 0; lo < len(y); lo += encodeBlock {
		blk := y[lo:min(lo+encodeBlock, len(y))]
		for j, v := range blk {
			// The subtraction is NaN for exactly the values JSON cannot carry.
			if v-v != 0 {
				return dst, fmt.Errorf("%w: y[%d] = %v", ErrNonFinite, lo+j, v)
			}
			lay[j] = 0
			if abs := math.Abs(v); tier && abs >= 1e-6 && abs < 1<<53 {
				d, frac := shortest(abs)
				binary.LittleEndian.PutUint64(g[24*j:], d/1e16)
				binary.LittleEndian.PutUint64(g[24*j+8:], d/1e8%1e8)
				binary.LittleEndian.PutUint64(g[24*j+16:], d%1e8)
				lay[j] = uint32(frac | int(math.Float64bits(v)>>63)<<8 | 1<<16)
			}
		}
		for j := 0; j < len(blk); j++ {
			k := j
			for k < len(blk) && lay[k] != 0 {
				k++
			}
			dst = simd.AppendPlain(dst, g[24*j:], lay[j:k])
			if j = k; k < len(blk) {
				dst = append(appendFloat(dst, blk[k]), ',')
			}
		}
	}
	if len(y) > 0 {
		dst = dst[:len(dst)-1] // the last entry's comma
	}
	dst = append(dst, `],"batch":`...)
	dst = strconv.AppendInt(dst, int64(batch), 10)
	return append(dst, "}}\n"...), nil
}

// encodeBlock is how many entries of y AppendMultiplyResponse takes a
// pass at a time.
const encodeBlock = 64

// appendFloat appends the finite v as encoding/json does (the ES6
// number-to-string rule): plain decimals inside [1e-6, 1e21), exponent
// form outside, and a one-digit negative exponent without its padding
// zero. The codec writes the plain decimals below 2^53 itself; strconv
// the rest.
func appendFloat(dst []byte, v float64) []byte {
	switch abs := math.Abs(v); {
	case abs >= 1e-6 && abs < 1<<53:
		n := len(dst)
		dst = append(dst, '-')[:n+int(math.Float64bits(v)>>63)] // kept only for a set sign bit
		d, frac := shortest(abs)
		return appendDecimal(dst, d, frac)
	case abs == 0 || abs >= 1<<53 && abs < 1e21:
		return strconv.AppendFloat(dst, v, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, v, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// pow5 holds 5^0 … 5^22: the shortest-digit search scales by at most
// 10^22 (5^22 < 2^52), and pow5[k]<<k is 10^k.
var pow5 = func() (t [23]uint64) {
	for i, p := 0, uint64(1); i < len(t); i, p = i+1, 5*p {
		t[i] = p
	}
	return t
}()

// shortest returns v, 1e-6 <= v < 2^53, as the decimal d·10^-frac
// strconv.AppendFloat(dst, v, 'f', -1, 64) writes: the fewest digits that read back as v and,
// of those, the closest to v, ties to even. Scaled by the 10^q that makes
// one unit of 2^e2 (e2 in [-73, -2]) just over 1, the rounding interval
// is (c ± 1)·5^q / 2^s with 5^q < 2^52 and s < 64: one 64x64-bit product
// holds its bounds exactly, so nothing is approximated.
func shortest(v float64) (d uint64, frac int) {
	b := math.Float64bits(v)
	mant, exp := b&(1<<52-1)|1<<52, int(b>>52&0x7ff)-1075
	if bits.TrailingZeros64(mant) >= -exp { // an integer prints as one
		return mant >> -exp, 0
	}
	// The interval is c ± 1 in units of 2^e2. Two cases of the general
	// rule cannot arise in this range, so neither is coded. The bounds
	// (c ± 1)·5^q / 2^s have odd numerators and s >= 1, so no candidate
	// lies on one (the lower bound's ceiling is its floor plus one), and
	// the even-mantissa rule for such a candidate has nothing to decide. The only values whose gap below is half the gap
	// above, 2^-19 … 2^-1, have at most 14 significant digits and no other
	// decimal that short within an ulp, so they print as themselves.
	c, e2 := mant<<1, exp-1
	q := (-e2*78913)>>18 + 1 // 10^q > 2^-e2 (78913/2^18 ≈ log10 2)
	s, p := uint(-e2-q), pow5[q]
	l := (64 - s) & 63 // s is in [1, 51]; the masks spare the shifts a range check
	ch, cl := bits.Mul64(c, p)
	ll, borrow := bits.Sub64(cl, p, 0)
	ul, carry := bits.Add64(cl, p, 0)
	lo, mid, hi := ((ch-borrow)<<l|ll>>(s&63))+1, ch<<l|cl>>(s&63), (ch+carry)<<l|ul>>(s&63)
	mask := uint64(1)<<s - 1
	// Drop digits while [lo, hi] still holds a shorter number, then round
	// the central value to the k digits dropped, ties to even, and keep
	// the result inside the interval.
	k, d := 0, mid
	for (lo+9)/10 <= hi/10 {
		lo, hi, d = (lo+9)/10, hi/10, d/10
		k++
	}
	// Twice the dropped remainder (integer part, fraction bits); round up
	// when 2·twice + (a fraction bit or odd d) > 2·10^k: the borrow below.
	pk := pow5[k] << k
	twice, tail := 2*(mid-d*pk)+(cl&mask)>>(s-1), cl&(mask>>1)
	_, up := bits.Sub64(2*pk, 2*twice|(tail|-tail)>>63|d&1, 0)
	d += up
	return min(max(d, lo), hi), q - k
}

// appendDecimal appends d·10^-frac in plain notation, each digit written
// once in its final place.
func appendDecimal(dst []byte, d uint64, frac int) []byte {
	nd := bits.Len64(d) * 1233 >> 12 // log10 2 ≈ 1233/2^12
	if d >= pow5[nd]<<nd {
		nd++
	}
	// "0.000000" is stored whole and kept as far as 0.000ddd needs (at most
	// five zeros at or above 1e-6); sep is 1 when the point falls among the
	// digits.
	n, zeros, sep := len(dst), 0, 0
	if frac >= nd {
		zeros = 2 + frac - nd
	} else if frac > 0 {
		sep = 1
	}
	dst = slices.Grow(dst, 16+nd)
	binary.LittleEndian.PutUint64(dst[n:n+8], 0x3030303030302e30)
	n += zeros
	dst = dst[:n+nd+sep] // and 8 bytes of room past it for putDigits
	putDigits(dst[n+sep:], d)
	if sep == 1 { // ddd.ddd: the integer digits move left past the point
		point := n + nd - frac
		copy(dst[n:point], dst[n+1:point+1])
		dst[point] = '.'
	}
	return dst
}

// putDigits fills b with d's last len(b) ≤ 20 digits, eight to a word: the
// leading one to eight are stored whole, up to seven bytes past len(b)
// (cap(b) must hold them), and the next groups' stores overwrite those.
func putDigits(b []byte, d uint64) {
	k, g := len(b), 0
	var rest [2]uint64
	for ; k > 8; k -= 8 {
		rest[g] = digits8(d % 1e8)
		d /= 1e8
		g++
	}
	binary.LittleEndian.PutUint64(b[:8], digits8(d)>>((64-8*k)&63))
	for ; g > 0; g-- {
		binary.LittleEndian.PutUint64(b[k:], rest[g-1])
		k += 8
	}
}

// digits8 returns d < 10^8 as eight ASCII digits in one little-endian word,
// the most significant in the lowest byte: halves of d, their halves and
// theirs go to ever narrower lanes, each split by a multiply-and-shift for
// the divide (x·5243>>19 is x/100 below 43 699, x·103>>10 is x/10 below
// 179) and a mask dropping what the shift brought in from the lane above.
func digits8(d uint64) uint64 {
	x := d/1e4 | d%1e4<<32 // two 4-digit lanes of 32 bits
	q := x * 5243 >> 19 & 0x0000007f0000007f
	x = q | (x-100*q)<<16 // four 2-digit lanes of 16 bits
	q = x * 103 >> 10 & 0x000f000f000f000f
	x = q | (x-10*q)<<8 // eight digits, one a byte
	return x | 0x3030303030303030
}
