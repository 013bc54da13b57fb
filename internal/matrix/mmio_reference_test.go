package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// referenceReadMatrixMarket is the per-line reader ReadMatrixMarket had
// before it parsed bytes in one scan (bufio.Scanner, strings.Fields, Atoi,
// ParseFloat and fmt.Sscan per line), kept as the definition the one-scan
// parser is held to. The failpoint site is the production reader's.
func referenceReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)

	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrMMFormat)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad banner %q", ErrMMFormat, sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("%w: unsupported container %q (only coordinate)", ErrMMFormat, header[2])
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("%w: unsupported field %q", ErrMMFormat, field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrMMFormat, symmetry)
	}

	// Skip comments, then read the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: missing size line", ErrMMFormat)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("%w: bad size line %q", ErrMMFormat, line)
		}
		break
	}
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
	capHint := nnz
	if capHint > mmPreallocCap {
		capHint = mmPreallocCap
	}
	if symmetry == "symmetric" {
		capHint *= 2
	}
	o := NewCOO(rows, cols, capHint)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("%w: short entry %q", ErrMMFormat, line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("%w: bad row in %q", ErrMMFormat, line)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("%w: bad col in %q", ErrMMFormat, line)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad value in %q", ErrMMFormat, line)
			}
		}
		// MatrixMarket is 1-based.
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrMMFormat, i, j, rows, cols)
		}
		o.Append(int32(i-1), int32(j-1), v)
		if symmetry == "symmetric" && i != j {
			o.Append(int32(j-1), int32(i-1), v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrMMFormat, nnz, read)
	}
	return o.ToCSR(), nil
}
