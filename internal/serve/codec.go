package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"unsafe"

	"repro/internal/formats"
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
	if err := d.expect('{'); err != nil {
		return x, err
	}
	if d.peek() == '}' {
		d.i++
		return x, nil
	}
	for {
		if d.peek() != '"' {
			return x, d.errorf("expected a member name")
		}
		start := d.i + 1
		if err := d.str(); err != nil {
			return x, err
		}
		name := d.b[start : d.i-1]
		if err := d.expect(':'); err != nil {
			return x, err
		}
		var err error
		switch string(name) {
		case "x", `\u0078`:
			x, err = d.vector(x[:0], cols)
		case "X", `\u0058`:
			err = d.errorf(`member "X": the name is "x"`)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return x, err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return x, nil
		default:
			return x, d.errorf("expected ',' or '}'")
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
		d.space()
		start := d.i
		dec, err := d.number()
		if err != nil {
			return x, err
		}
		if len(x) == cols {
			return x, fmt.Errorf("%w: x has more than %d entries, matrix has %d columns",
				formats.ErrDimension, cols, cols)
		}
		v, ok := dec.float()
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

// decimal is a scanned number literal: its value is ±mant × 10^exp,
// exactly, unless hard is set.
type decimal struct {
	mant uint64
	exp  int
	neg  bool
	// hard marks a literal the fast paths must leave to strconv: a nonzero
	// digit past the 19th significant one (mant is truncated), or an
	// exponent too long to accumulate.
	hard bool
}

// maxMantDigits is the most significant digits a uint64 always holds.
const maxMantDigits = 19

// number consumes one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and accumulates its
// value on the way, so the bytes are read once.
func (d *decoder) number() (v decimal, err error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		v.neg = true
		i++
	}
	nd := 0 // significant digits in mant; leading zeros are not
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxMantDigits {
				v.mant = v.mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				v.exp++
				if b[i] != '0' {
					v.hard = true
				}
			}
		}
	default:
		return v, d.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			d.i = i
			return v, d.errorf("expected a digit after the decimal point")
		}
		if v.mant == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				v.exp--
			}
		}
		whole := nd
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < maxMantDigits {
				v.mant = v.mant*10 + uint64(b[i]-'0')
				nd++
			} else if b[i] != '0' {
				v.hard = true
			}
		}
		v.exp -= nd - whole
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.i = i
			return v, d.errorf("expected a digit in the exponent")
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			} else {
				v.hard = true
			}
		}
		if neg {
			e = -e
		}
		v.exp += e
	}
	d.i = i
	return v, nil
}

// Exact powers of ten: every 10^k with k ≤ 22 is a float64 (5^22 < 2^53),
// and every 10^k with k ≤ 19 a uint64.
var (
	pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// float converts v to the float64 nearest its value, ties to even — the
// result strconv.ParseFloat gives — by the first of two exact paths that
// applies, and reports false when neither does.
//
// (i) Clinger (PLDI 1990): a mantissa of at most 2^53 and a power of ten of
// at most 10^22 are both exact doubles, so one correctly rounded multiply
// or divide is the correctly rounded value.
//
// (ii) Long division: any other mantissa over 10^q, q ≤ 19, is one exact
// 128-by-64-bit division (quotient) rounded once.
func (v decimal) float() (float64, bool) {
	var f float64
	switch {
	case v.hard:
		return 0, false
	case v.mant <= 1<<53 && -len(pow10f) < v.exp && v.exp < len(pow10f):
		f = float64(v.mant)
		if v.exp < 0 {
			f /= pow10f[-v.exp]
		} else {
			f *= pow10f[v.exp]
		}
	case -len(pow10u) < v.exp && v.exp < 0: // so v.mant > 2^53
		f = quotient(v.mant, pow10u[-v.exp])
	default:
		return 0, false
	}
	if v.neg {
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

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes one JSON string, opening quote included, validating its
// escapes and control characters the way encoding/json's scanner does.
func (d *decoder) str() error {
	b := d.b
	for i := d.i + 1; i < len(b); i++ {
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

// skip consumes one JSON value of any shape — an unknown member's — at
// nesting depth depth, validating it as it goes.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		return d.str()
	case c == '-' || isDigit(c):
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
		d.i++
		closer := c + 2 // '{'+2 == '}', '['+2 == ']'
		if d.peek() == closer {
			d.i++
			return nil
		}
		for {
			if c == '{' {
				if d.peek() != '"' {
					return d.errorf("expected a member name")
				}
				if err := d.str(); err != nil {
					return err
				}
				if err := d.expect(':'); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
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
func AppendMultiplyResponse(dst []byte, y []float64, batch int) ([]byte, error) {
	dst = append(dst, `{"ok":true,"data":{"y":[`...)
	for i, v := range y {
		if i > 0 {
			dst = append(dst, ',')
		}
		// The subtraction is NaN for exactly the values JSON cannot carry.
		if v-v != 0 {
			return dst, fmt.Errorf("%w: y[%d] = %v", ErrNonFinite, i, v)
		}
		// encoding/json's float encoding (the ES6 number-to-string rule):
		// plain decimals inside [1e-6, 1e21), exponent form outside, and a
		// one-digit negative exponent without its padding zero.
		format := byte('f')
		if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, v, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	dst = append(dst, `],"batch":`...)
	dst = strconv.AppendInt(dst, int64(batch), 10)
	return append(dst, "}}\n"...), nil
}
