package formats

import (
	"repro/internal/matrix"
)

// SPX is a SparseX-like compressed format (Elafrou et al., TOMS 2018): the
// build step detects substructures in each row and encodes them as units
// with minimal metadata, directly attacking memory-bandwidth intensity.
// Detected units:
//
//   - horizontal runs: >= MinRunLen consecutive columns stored as
//     (start, len) with no per-element indices;
//   - delta-compressed singletons: remaining elements stored as unsigned
//     column deltas in 1 or 2 bytes when they fit, 4 bytes otherwise.
//
// The full SparseX library also detects vertical, diagonal and block
// substructures; horizontal runs plus delta encoding capture the dominant
// compression on the row-major matrices this study generates, and the
// Traits report the achieved compression honestly.
type SPX struct {
	driver
	rows, cols int
	nnz        int64
	rowPtr     []int32 // unit-stream offset per row, into stream
	stream     []byte  // encoded unit stream
	val        []float64
	valPtr     []int64 // value offset per row
	bytesTotal int64
}

// MinRunLen is the shortest column run encoded as a horizontal-run unit.
const MinRunLen = 4

// Unit opcodes in the encoded stream.
const (
	opRun     = iota // [op][u32 startCol][u16 len]
	opDelta8         // [op][u8 count][u32 firstCol][u8 deltas...]
	opDelta16        // like opDelta8 with u16 deltas
	opDelta32        // like opDelta8 with u32 deltas
)

// NewSPX builds the SparseX-like format from a CSR matrix.
func NewSPX(m *matrix.CSR) *SPX {
	f := &SPX{rows: m.Rows, cols: m.Cols, nnz: int64(m.NNZ())}
	f.rowPtr = make([]int32, m.Rows+1)
	f.valPtr = make([]int64, m.Rows+1)
	f.val = append([]float64(nil), m.Val...)

	var stream []byte
	emitU16 := func(v uint16) { stream = append(stream, byte(v), byte(v>>8)) }
	emitU32 := func(v uint32) { stream = append(stream, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }

	for i := 0; i < m.Rows; i++ {
		f.rowPtr[i] = int32(len(stream))
		f.valPtr[i] = int64(m.RowPtr[i])
		cols, _ := m.Row(i)
		k := 0
		for k < len(cols) {
			// Measure the run of consecutive columns starting at k.
			run := 1
			for k+run < len(cols) && cols[k+run] == cols[k+run-1]+1 && run < 65535 {
				run++
			}
			if run >= MinRunLen {
				stream = append(stream, opRun)
				emitU32(uint32(cols[k]))
				emitU16(uint16(run))
				k += run
				continue
			}
			// Collect singletons until the next long run begins.
			start := k
			k += run
			for k < len(cols) {
				r := 1
				for k+r < len(cols) && cols[k+r] == cols[k+r-1]+1 {
					r++
				}
				if r >= MinRunLen {
					break
				}
				k += r
			}
			group := cols[start:k]
			// Choose the narrowest delta width that fits all gaps.
			width := byte(opDelta8)
			for j := 1; j < len(group); j++ {
				d := uint32(group[j] - group[j-1])
				if d > 0xFFFF {
					width = opDelta32
					break
				}
				if d > 0xFF && width == opDelta8 {
					width = opDelta16
				}
			}
			for off := 0; off < len(group); off += 255 {
				n := len(group) - off
				if n > 255 {
					n = 255
				}
				stream = append(stream, width, byte(n))
				emitU32(uint32(group[off]))
				for j := 1; j < n; j++ {
					d := uint32(group[off+j] - group[off+j-1])
					switch width {
					case opDelta8:
						stream = append(stream, byte(d))
					case opDelta16:
						emitU16(uint16(d))
					default:
						emitU32(d)
					}
				}
			}
		}
	}
	f.rowPtr[m.Rows] = int32(len(stream))
	f.valPtr[m.Rows] = int64(m.NNZ())
	f.stream = stream
	f.bytesTotal = int64(len(stream)) + int64(len(f.val))*8 +
		int64(len(f.rowPtr))*4 + int64(len(f.valPtr))*8
	f.bind(f)
	return f
}

// Name implements Format.
func (f *SPX) Name() string { return "SparseX" }

// Rows implements Format.
func (f *SPX) Rows() int { return f.rows }

// Cols implements Format.
func (f *SPX) Cols() int { return f.cols }

// NNZ implements Format.
func (f *SPX) NNZ() int64 { return f.nnz }

// Bytes implements Format.
func (f *SPX) Bytes() int64 { return f.bytesTotal }

// Traits implements Format.
func (f *SPX) Traits() Traits {
	meta := 4.0
	if f.nnz > 0 {
		meta = float64(f.bytesTotal-8*f.nnz) / float64(f.nnz)
	}
	return Traits{Balancing: NNZGranular, MetaBytesPerNNZ: meta,
		Class: ClassEntry, DecodeCycles: spxDecodeCycles, Preprocessed: true}
}

// spxDecodeCycles is the scalar unit-decode work per stored entry the
// run-length expansion costs on top of the FMA (branch on unit header,
// delta add, bounds walk) — compute the device model charges against the
// clock, not the memory bus.
const spxDecodeCycles = 2.0

func (f *SPX) rowRange(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		s := int(f.rowPtr[i])
		end := int(f.rowPtr[i+1])
		v := f.valPtr[i]
		u := f.stream
		for s < end {
			switch op := u[s]; op {
			case opRun:
				col := int32(uint32(u[s+1]) | uint32(u[s+2])<<8 | uint32(u[s+3])<<16 | uint32(u[s+4])<<24)
				n := int(uint16(u[s+5]) | uint16(u[s+6])<<8)
				s += 7
				for j := 0; j < n; j++ {
					sum += f.val[v] * x[col+int32(j)]
					v++
				}
			default: // delta groups
				n := int(u[s+1])
				col := int32(uint32(u[s+2]) | uint32(u[s+3])<<8 | uint32(u[s+4])<<16 | uint32(u[s+5])<<24)
				s += 6
				sum += f.val[v] * x[col]
				v++
				for j := 1; j < n; j++ {
					var d int32
					switch op {
					case opDelta8:
						d = int32(u[s])
						s++
					case opDelta16:
						d = int32(uint16(u[s]) | uint16(u[s+1])<<8)
						s += 2
					default:
						d = int32(uint32(u[s]) | uint32(u[s+1])<<8 | uint32(u[s+2])<<16 | uint32(u[s+3])<<24)
						s += 4
					}
					col += d
					sum += f.val[v] * x[col]
					v++
				}
			}
		}
		y[i] = sum
	}
}

func (f *SPX) units() int { return f.rows }

// cum: stored values plus a row visit each.
func (f *SPX) cum(i int) int64 { return f.valPtr[i] + int64(i) }

// apply is single-vector only: the compressed unit stream would have to be
// re-decoded per register tile, which costs more than the fused reuse
// saves, so SparseX multiplies blocks one column at a time.
func (f *SPX) apply(y, x, _ []float64, _, lo, hi int) { f.rowRange(x, y, lo, hi) }
