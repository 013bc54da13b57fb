package matrix

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/decimal"
	"repro/internal/failpoint"
)

// MatrixMarket I/O for the "matrix coordinate" container, the interchange
// format used by SuiteSparse and the paper's validation suite. Supported
// qualifiers: real/integer/pattern x general/symmetric. Pattern entries read
// as value 1; symmetric matrices are expanded to full storage on read.

// ErrMMFormat reports a malformed MatrixMarket stream.
var ErrMMFormat = errors.New("matrix: invalid MatrixMarket input")

// MMMaxDim caps the row and column counts ReadMatrixMarket accepts from a
// size line. The CSR row-pointer array is allocated from the declared row
// count alone, so an adversarial (or corrupt) header could otherwise
// demand gigabytes before a single entry is read. The default admits any
// SuiteSparse matrix; services parsing untrusted uploads should lower it
// (the fuzz harness runs with a much smaller cap).
var MMMaxDim = 1 << 28

// mmPreallocCap bounds the entry storage preallocated from the declared
// nnz. A header may declare billions of entries and then supply none;
// beyond this cap the triplet arrays grow by append as entries actually
// arrive, trading a few reallocations for a bounded up-front footprint.
const mmPreallocCap = 1 << 20

// ReadMatrixMarket reads r to its end and parses the bytes with
// ParseMatrixMarket. A reader that reports its length (bytes.Reader,
// strings.Reader, bytes.Buffer) is read into one allocation of that size.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return ParseMatrixMarket(buf.Bytes())
}

// ParseMatrixMarket parses a MatrixMarket coordinate stream held in b into
// CSR in one scan, reading b in place. Fields are separated by ASCII
// blanks (space, \t, \r, \v, \f) and lines end at \n; comment and blank
// lines may sit anywhere before the last entry, extra fields on a line
// are ignored, and so is everything after the declared entries. Indices
// take what strconv.Atoi takes and the size line's three integers carry
// no leading zero. A value takes internal/decimal's exact fast path when
// that grammar spans the whole field, and strconv.ParseFloat otherwise, so
// the values accepted and their bits are ParseFloat's.
func ParseMatrixMarket(b []byte) (*CSR, error) {
	// I/O fault injection: models the stream dying mid-read (NFS drop,
	// truncated download). The chaos suite drives it to assert a failed
	// load surfaces as an error and never a partial matrix.
	if err := failpoint.Inject("mmio.read"); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrMMFormat)
	}
	c := mmCursor{b: b}
	var header [5]string
	for k := range header {
		header[k] = strings.ToLower(string(c.field()))
	}
	if header[4] == "" || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad banner %q", ErrMMFormat, b[:min(c.i, 80)])
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("%w: unsupported container %q (only coordinate)", ErrMMFormat, header[2])
	}
	field, symmetry := header[3], header[4]
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("%w: unsupported field %q", ErrMMFormat, field)
	}
	if symmetry != "general" && symmetry != "symmetric" {
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrMMFormat, symmetry)
	}

	// Skip comments, then read the size line.
	if !c.next() {
		return nil, fmt.Errorf("%w: missing size line", ErrMMFormat)
	}
	var size [3]int
	for k := range size {
		// fmt.Sscan, the per-line reader's size-line parser, read a
		// leading zero as octal.
		n, f, ok := c.int()
		if d := bytes.TrimLeft(f, "+-"); !ok || len(d) > 1 && d[0] == '0' {
			return nil, fmt.Errorf("%w: bad size line at offset %d", ErrMMFormat, c.i)
		}
		size[k] = n
	}
	rows, cols, nnz := size[0], size[1], size[2]
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrMMFormat)
	}
	if rows > MMMaxDim || cols > MMMaxDim || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("%w: size %dx%d exceeds MMMaxDim %d", ErrMMFormat, rows, cols, MMMaxDim)
	}
	// A mirrored entry of a non-square matrix can fall outside it.
	if symmetry == "symmetric" && rows != cols {
		return nil, fmt.Errorf("%w: symmetric matrix is %dx%d, not square", ErrMMFormat, rows, cols)
	}

	// Preallocation is capped, never trusted: the declared nnz (doubled for
	// symmetric expansion) is only a hint, and a hint past the cap would
	// let a short malicious header demand an unbounded allocation. The cap
	// is applied before the doubling, which also forecloses int overflow.
	capHint := min(nnz, mmPreallocCap)
	if symmetry == "symmetric" {
		capHint *= 2
	}
	o := NewCOO(rows, cols, capHint)
	read := 0
	for ; read < nnz && c.next(); read++ {
		i, _, iok := c.int()
		j, _, jok := c.int()
		v, vok := 1.0, true
		if field != "pattern" {
			v, vok = c.value()
		}
		if !iok || !jok || !vok {
			return nil, fmt.Errorf("%w: bad entry at offset %d", ErrMMFormat, c.i)
		}
		// MatrixMarket is 1-based.
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrMMFormat, i, j, rows, cols)
		}
		o.Append(int32(i-1), int32(j-1), v)
		if symmetry == "symmetric" && i != j {
			o.Append(int32(j-1), int32(i-1), v)
		}
	}
	if read != nnz {
		return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrMMFormat, nnz, read)
	}
	return o.ToCSR(), nil
}

// mmCursor walks MatrixMarket text. Only next leaves the current line.
type mmCursor struct {
	b []byte
	i int
}

// ended reports whether the cursor is at a blank, a newline or the end.
func (c *mmCursor) ended() bool {
	return c.i == len(c.b) || c.b[c.i] == ' ' || '\t' <= c.b[c.i] && c.b[c.i] <= '\r'
}

// blanks moves to the line's next field, or to its end.
func (c *mmCursor) blanks() {
	for c.i < len(c.b) && c.b[c.i] != '\n' && c.ended() {
		c.i++
	}
}

// field returns the line's next field, empty at the end of the line.
func (c *mmCursor) field() []byte {
	c.blanks()
	start := c.i
	for !c.ended() {
		c.i++
	}
	return c.b[start:c.i]
}

// next moves past the current line to the first field of the next line
// that is neither blank nor a comment, and reports whether there is one.
func (c *mmCursor) next() bool {
	for {
		k := bytes.IndexByte(c.b[c.i:], '\n')
		if k < 0 {
			c.i = len(c.b)
			return false
		}
		c.i += k + 1
		if c.blanks(); c.i < len(c.b) && c.b[c.i] != '\n' && c.b[c.i] != '%' {
			return true
		}
	}
}

// int scans a field strconv.Atoi takes, an optional sign and decimal
// digits, and returns the field. Magnitudes saturate past 2^59, where
// every caller's range check fails.
func (c *mmCursor) int() (n int, f []byte, ok bool) {
	c.blanks()
	b, start, i := c.b, c.i, c.i
	neg := i < len(b) && b[i] == '-'
	if neg || i < len(b) && b[i] == '+' {
		i++
	}
	digits := i
	for ; i < len(b) && decimal.IsDigit(b[i]); i++ {
		if n < 1<<59 {
			n = n*10 + int(b[i]-'0')
		}
	}
	if c.i = i; neg {
		n = -n
	}
	return n, b[start:i], i > digits && c.ended()
}

// value scans a real field: by the shared grammar when it spans the field
// and its exact paths apply, by strconv.ParseFloat on the field otherwise
// (a leading + or zero, inf, nan, hex, over 19 digits, out of range).
func (c *mmCursor) value() (float64, bool) {
	c.blanks()
	start := c.i
	num, n, err := decimal.Scan(c.b[start:])
	if c.i += n; err == nil && c.ended() {
		if v, ok := num.Float(); ok {
			return v, true
		}
	}
	c.i = start
	v, err := strconv.ParseFloat(string(c.field()), 64)
	return v, err == nil
}

// WriteMatrixMarket writes m as a general real coordinate MatrixMarket stream.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	// A bufio.Writer keeps its first error, and Flush returns it.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[k]+1, m.Val[k])
		}
	}
	return bw.Flush()
}
