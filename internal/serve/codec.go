package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
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
// the decoded x, the product y and the encoded response.
type multiplyBufs struct {
	body []byte
	x, y []float64
	resp []byte
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
		if err := d.number(); err != nil {
			return x, err
		}
		if len(x) == cols {
			return x, fmt.Errorf("%w: x has more than %d entries, matrix has %d columns",
				formats.ErrDimension, cols, cols)
		}
		lit := d.b[start:d.i]
		// The literal is valid JSON, so ParseFloat can only fail on range.
		v, err := strconv.ParseFloat(unsafe.String(&lit[0], len(lit)), 64)
		if err != nil {
			d.i = start
			return x, d.errorf("number %s out of range", lit)
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

// number consumes one JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return d.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			d.i = i
			return d.errorf("expected a digit after the decimal point")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.i = i
			return d.errorf("expected a digit in the exponent")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	d.i = i
	return nil
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
		return d.number()
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
