package matrix

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// FuzzReadMatrixMarket is the untrusted-input contract of the reader: on
// arbitrary bytes it must either return an error or a structurally valid
// CSR — never panic, and never allocate proportionally to a declared size
// the stream does not back (the run lowers MMMaxDim so a hostile header
// is rejected long before it could hurt, which is exactly the knob a
// service parsing uploads would use). It must also give the per-line
// reference reader's verdict and, on accepted input, its CSR bit for bit,
// but for the narrowings ARCHITECTURE documents (mmNarrowed). Accepted
// inputs must survive a write/re-read round trip bit for bit.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.5\n3 2 -1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n2 1\n3 3\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer general\n2 4 3\n1 1 7\n1 4 -2\n2 3 5\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n5 5 10\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n99999999 99999999 99999999\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n"))
	for _, s := range []string{
		// CRLF line endings, tabs, vertical tabs and form feeds, extra
		// trailing fields.
		"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 0.5\r\n2 2 -3\r\n",
		"%%MatrixMarket\tmatrix coordinate\tREAL General\n2\t2\t2 extra\n\t1\t1\t0.5\tx y\n2 2\v-3\f9\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1 garbage\n",
		// Comments and blank lines between entries, and after the last.
		"%%MatrixMarket matrix coordinate real general\n%c\n\n  \n2 2 2\n% mid\n\n1 2 1\n   %x\n2 1 2\n%tail\njunk\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n\n",
		// Leading zeros, signs, inf/nan, hex floats, out of range.
		"%%MatrixMarket matrix coordinate real general\n3 3 4\n01 +2 007\n2 002 +1.5\n3 3 .5\n3 1 -0.\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 Inf\n1 2 -infinity\n2 1 NaN\n2 2 0x1.8p3\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e400\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e-400\n",
		"%%MatrixMarket matrix coordinate real general\n010 010 1\n8 8 1\n",
		"%%MatrixMarket matrix coordinate real general\n0x2 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1x\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n+2 2 +1\n1 1 1_0\n",
		// 20 and more significant digits, long zeros, a long exponent.
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 0.12345678901234567890123\n2 1 12345678901234567890123e-30\n2 2 0.00000000000000000000000001e0000000000000000025\n",
		// Non-ASCII white space, which only the reference splits on.
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1\u00a01 2\n",
		// Duplicates, which sum, and unsorted entries.
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n2 2 1\n1 1 2\n2 2 0.25\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func(prev int) { MMMaxDim = prev }(MMMaxDim)
		MMMaxDim = 1 << 12

		m, err := ReadMatrixMarket(bytes.NewReader(data))
		ref, rerr := referenceReadMatrixMarket(bytes.NewReader(data))
		switch {
		case err == nil && rerr != nil:
			t.Fatalf("accepted %q, the reference rejects it: %v", data, rerr)
		case err != nil && rerr == nil && !mmNarrowed(data):
			t.Fatalf("rejected %q (%v), the reference accepts it", data, err)
		case err == nil:
			requireSameCSR(t, "reference", ref, m)
		}
		if err != nil {
			return // rejection is fine; panicking or over-allocating is not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted input produced an invalid CSR: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("write back: %v", err)
		}
		m2, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		// %.17g round-trips every float64 exactly, and it must keep doing
		// so for -0, infinities and NaN alike.
		requireSameCSR(t, "round trip", m, m2)
	})
}

// requireSameCSR fails unless got is want bit for bit.
func requireSameCSR(t *testing.T, what string, want, got *CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols || want.NNZ() != got.NNZ() {
		t.Fatalf("%s: shape %v, want %v", what, got, want)
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", what, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Val {
		if want.ColIdx[k] != got.ColIdx[k] ||
			math.Float64bits(want.Val[k]) != math.Float64bits(got.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", what, k,
				got.ColIdx[k], math.Float64bits(got.Val[k]),
				want.ColIdx[k], math.Float64bits(want.Val[k]))
		}
	}
}

// plainInt is the size-line grammar of the one-scan reader.
var plainInt = regexp.MustCompile(`^[+-]?(0|[1-9][0-9]*)$`)

// mmNarrowed reports whether an input the reference reader accepts falls
// under a documented narrowing of ParseMatrixMarket: non-ASCII white
// space (which strings.Fields and strings.TrimSpace split and trim on),
// or a size-line field fmt.Sscan read that is not a plain decimal integer
// (a base prefix, an octal leading zero, digit underscores, or a tail
// glued to the number).
func mmNarrowed(data []byte) bool {
	if bytes.ContainsFunc(data, func(r rune) bool { return r > unicode.MaxASCII && unicode.IsSpace(r) }) {
		return true
	}
	lines := strings.Split(string(data), "\n")
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		return len(f) < 3 || !plainInt.MatchString(f[0]) || !plainInt.MatchString(f[1]) || !plainInt.MatchString(f[2])
	}
	return false
}

// FuzzCOOCompact pins the Compact contract the delta log depends on:
// after any append sequence — with arbitrary interleaved intermediate
// Compact calls, which exercise the sorted-prefix fast path — the log
// holds exactly one entry per touched cell, in strictly increasing
// row-major order, with the value equal (bit for bit) to the left-fold
// sum of that cell's appends in program order. A second Compact must be a
// pure no-op (idempotence).
func FuzzCOOCompact(f *testing.F) {
	f.Add([]byte{4, 4, 1, 1, 10, 1, 1, 246, 0, 3, 80})
	f.Add([]byte{1, 1, 0, 0, 1, 0, 0, 2, 0, 0, 3})
	f.Add([]byte{16, 16, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows := int(data[0]%16) + 1
		cols := int(data[1]%16) + 1
		entries := data[2:]
		type cell struct{ r, c int32 }
		o := NewCOO(rows, cols, 0)
		acc := map[cell]float64{}
		for e := 0; e+3 <= len(entries); e += 3 {
			r := int32(int(entries[e]) % rows)
			c := int32(int(entries[e+1]) % cols)
			v := float64(int8(entries[e+2])) / 8
			o.Append(r, c, v)
			acc[cell{r, c}] += v
			if entries[e]&7 == 0 {
				o.Compact() // interleaved compactions must not change the outcome
			}
		}
		o.Compact()

		if len(o.Val) != len(acc) {
			t.Fatalf("%d entries after Compact, want one per touched cell (%d)", len(o.Val), len(acc))
		}
		for k := range o.Val {
			if k > 0 {
				if o.RowIdx[k-1] > o.RowIdx[k] ||
					(o.RowIdx[k-1] == o.RowIdx[k] && o.ColIdx[k-1] >= o.ColIdx[k]) {
					t.Fatalf("ordering violated at %d: (%d,%d) then (%d,%d)", k,
						o.RowIdx[k-1], o.ColIdx[k-1], o.RowIdx[k], o.ColIdx[k])
				}
			}
			want, ok := acc[cell{o.RowIdx[k], o.ColIdx[k]}]
			if !ok {
				t.Fatalf("entry (%d,%d) was never appended", o.RowIdx[k], o.ColIdx[k])
			}
			if math.Float64bits(want) != math.Float64bits(o.Val[k]) {
				t.Fatalf("cell (%d,%d) = %x, want append-order sum %x",
					o.RowIdx[k], o.ColIdx[k], math.Float64bits(o.Val[k]), math.Float64bits(want))
			}
		}

		rowBefore := append([]int32(nil), o.RowIdx...)
		colBefore := append([]int32(nil), o.ColIdx...)
		valBefore := append([]float64(nil), o.Val...)
		if m := o.Compact(); m != 0 {
			t.Fatalf("second Compact merged %d entries", m)
		}
		for k := range valBefore {
			if o.RowIdx[k] != rowBefore[k] || o.ColIdx[k] != colBefore[k] ||
				math.Float64bits(o.Val[k]) != math.Float64bits(valBefore[k]) {
				t.Fatalf("second Compact changed entry %d", k)
			}
		}

		if err := o.ToCSR().Validate(); err != nil {
			t.Fatalf("compacted log converts to invalid CSR: %v", err)
		}
	})
}
