// Package formats implements the sparse storage formats and SpMV kernels
// evaluated by the paper that earn their place on the host: the
// state-of-practice formats COO, CSR (naive, vectorized, balanced,
// inspector-executor) and HYB, the research formats CSR5, Merge-CSR,
// SELL-C-sigma and a SparseX-like compressed format, plus BCSR as an
// extension. Every format builds from a CSR matrix and provides serial and
// parallel double-precision SpMV kernels producing the same result as the
// CSR reference (up to floating-point reassociation). A format the paper
// runs only on another device (VSL on the FPGA) or that loses everywhere
// on the host (DIA) keeps a trait estimate for the device models and no
// kernel. ELL, which no testbed runs and which won no host measurement,
// has neither: HYB's padded slab is the host's one slab sweep.
//
// Each format also reports Traits — padding ratio, metadata volume, work
// distribution discipline — which ground the analytical device models in
// internal/device on actually-built structures.
package formats

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/matrix"
)

// Format is a built sparse-matrix representation with SpMV kernels.
type Format interface {
	// Name returns the format identifier, e.g. "CSR5" or "SELL-C-s".
	Name() string
	// Rows and Cols return the logical matrix shape.
	Rows() int
	Cols() int
	// NNZ returns the number of logical nonzeros (excluding padding).
	NNZ() int64
	// Bytes returns the total storage footprint in bytes, including
	// metadata and zero padding.
	Bytes() int64
	// Apply is the one real entry point: it computes Y = A*X for a block
	// of k dense right-hand sides under ctx. X and Y are row-major: X
	// holds k values per matrix column (len cols*k, X[c*k+t] is vector
	// t's value for matrix column c) and Y k values per matrix row (len
	// rows*k); k = 1 is plain SpMV. Hot formats fuse the k products into
	// one pass over the matrix — each loaded nonzero feeds k FMAs instead
	// of one, lifting arithmetic intensity past the bandwidth wall
	// single-vector SpMV hits — while the remaining formats multiply one
	// vector at a time. workers is a parallelism hint: the execution
	// engine caps it at the machine's parallelism (see exec.MaxWorkers)
	// and shrinks it when the matrix is too small to amortize worker
	// wake-ups, down to a serial sweep for tiny inputs. Partitions and
	// scratch buffers are computed on first use per placement and cached
	// inside the format instance, so steady-state calls do zero
	// scheduling work.
	//
	// Bad arguments return ErrInvalidK or ErrDimension. A cancelled or
	// expired ctx makes Apply return the context's error within one
	// cancellation chunk; y then holds a partial result and must not be
	// used. A kernel panic on any lane is contained by the engine and
	// returned as a *exec.PanicError.
	Apply(ctx context.Context, y, x []float64, k, workers int) error
	// SpMV, SpMVParallel and MultiplyMany are Apply for callers without a
	// context or an error path: Apply(Background, y, x, 1, 1),
	// Apply(Background, y, x, 1, workers) and Apply(Background, y, x, k,
	// exec.MaxWorkers()), panicking where Apply returns an error (see
	// Delegates).
	SpMV(x, y []float64)
	SpMVParallel(x, y []float64, workers int)
	MultiplyMany(y, x []float64, k int)
	// Traits reports the structural characteristics of this instance.
	Traits() Traits
}

// Balancing classifies a format's work-distribution discipline.
type Balancing int

// Work-distribution disciplines, coarsest to finest.
const (
	RowGranular  Balancing = iota // equal row counts; skew-sensitive
	NNZGranular                   // equal nonzero counts over whole rows
	ItemGranular                  // merge-path style; splits inside rows
)

// String names the balancing discipline.
func (b Balancing) String() string {
	switch b {
	case RowGranular:
		return "row-granular"
	case NNZGranular:
		return "nnz-granular"
	case ItemGranular:
		return "item-granular"
	}
	return fmt.Sprintf("Balancing(%d)", int(b))
}

// Traits summarizes the structural cost profile of a built format instance.
// The analytical device model consumes these.
type Traits struct {
	// Balancing is the work-distribution discipline of the parallel kernel.
	Balancing Balancing
	// PaddingRatio is (stored entries - nnz) / nnz; zero for unpadded
	// formats, skew-sized for padded-slab formats.
	PaddingRatio float64
	// MetaBytesPerNNZ is the metadata traffic per stored nonzero (indices,
	// pointers, descriptors), excluding the 8-byte value itself.
	MetaBytesPerNNZ float64
	// Class is the single-vector kernel the format runs, which prices its
	// in-core work and says whether the loop is laid out for SIMD
	// (KernelClass.Vectorized).
	Class KernelClass
	// ColumnMajor reports a slab layout whose single-vector kernel walks
	// rows in the INNER loop (HYB's column sweep, VSL column streams):
	// per-row loop control amortizes over the whole slab column, so the
	// short-row ILP penalty of row-major kernels does not apply at k = 1.
	ColumnMajor bool
	// DecodeCycles is the extra unit-cycles of scalar decode work per
	// stored entry beyond the FMA itself (compressed formats pay it to
	// expand their streams). It is compute cost, not traffic: on
	// bandwidth-starved many-core devices it hides behind the memory wall,
	// on few-core hosts it is the binding constraint.
	DecodeCycles float64
	// Preprocessed reports inspector-executor style build-time analysis,
	// which the paper excludes from kernel time but notes as a cost.
	Preprocessed bool
}

// ErrBuild wraps format construction failures (excessive padding, capacity).
var ErrBuild = errors.New("formats: cannot build")

// Builder constructs a format from a CSR matrix.
type Builder struct {
	Name  string
	Build func(m *matrix.CSR) (Format, error)
}

// Registry returns all format builders in a stable order: the
// state-of-practice formats first, then the research formats, then the
// extension.
func Registry() []Builder { return append([]Builder(nil), registry...) }

var registry = []Builder{
	{"COO", func(m *matrix.CSR) (Format, error) { return NewCOO(m), nil }},
	csrBuilder("Naive-CSR"),
	csrBuilder("Vec-CSR"),
	csrBuilder("Bal-CSR"),
	csrBuilder("MKL-IE"),
	{"HYB", func(m *matrix.CSR) (Format, error) { return asFormat(newHYB(m)) }},
	{"CSR5", func(m *matrix.CSR) (Format, error) { return asFormat(NewCSR5(m)) }},
	{"Merge-CSR", func(m *matrix.CSR) (Format, error) { return newMergeCSR(m), nil }},
	{"SELL-C-s", func(m *matrix.CSR) (Format, error) {
		return asFormat(newSELLCS(m, DefaultChunkC(), DefaultSigma))
	}},
	{"SparseX", func(m *matrix.CSR) (Format, error) { return NewSPX(m), nil }},
	{"BCSR", func(m *matrix.CSR) (Format, error) { return newBCSR(m), nil }},
}

// csrBuilder registers a CSR preset (newPreset).
func csrBuilder(name string) Builder {
	return Builder{name, func(m *matrix.CSR) (Format, error) { return newPreset(name, m), nil }}
}

// asFormat lifts a fallible concrete constructor's result to (Format,
// error) without wrapping a nil pointer in a non-nil interface.
func asFormat[F Format](f F, err error) (Format, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Lookup returns the builder with the given name, or false — also for the
// names EstimateTraits prices without a kernel (VSL, DIA).
func Lookup(name string) (Builder, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return Builder{}, false
}

// zero clears a vector.
func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
