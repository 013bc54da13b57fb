// Package formats implements the sparse storage formats and SpMV kernels
// evaluated by the paper that earn their place on the host: the
// state-of-practice formats COO, CSR (naive, vectorized, balanced,
// inspector-executor), ELL and HYB, the research formats CSR5, Merge-CSR,
// SELL-C-sigma and a SparseX-like compressed format, plus BCSR as an
// extension. Every format builds from a CSR matrix and provides serial and
// parallel double-precision SpMV kernels producing the same result as the
// CSR reference (up to floating-point reassociation). A format the paper
// runs only on another device (VSL on the FPGA) or that loses everywhere
// on the host (DIA) keeps a trait estimate for the device models and no
// kernel.
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

// Tuning carries the per-matrix structural parameters the selector's
// autotuner measures; formats take it at construction (Builder.BuildTuned)
// and never change it afterwards. The zero value is every format's
// default.
type Tuning struct {
	// NarrowTiles keeps the fused SpMM kernels on the 4-vector register
	// tile even when the dispatched SIMD width is 8: on matrices with
	// short rows the wide tile's halved accumulator count can lose.
	NarrowTiles bool
	// BlockR x BlockC is the BCSR block geometry; zero means 2x2.
	BlockR, BlockC int
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
	// formats, skew-sized for ELL-family formats.
	PaddingRatio float64
	// MetaBytesPerNNZ is the metadata traffic per stored nonzero (indices,
	// pointers, descriptors), excluding the 8-byte value itself.
	MetaBytesPerNNZ float64
	// Class is the single-vector kernel the format runs, which prices its
	// in-core work and says whether the loop is laid out for SIMD
	// (KernelClass.Vectorized).
	Class KernelClass
	// ColumnMajor reports a slab layout whose single-vector kernel walks
	// rows in the INNER loop (ELL/HYB column sweeps, VSL column streams):
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

// Tunable names one group of Tuning fields; a Builder's Tunables are the
// groups its format reads, so the autotuner knows what to sweep for a
// format without knowing the format.
type Tunable uint8

// The tunable parameter groups.
const (
	// TuneTiles: the fused SpMM kernel carries the 8-vector register tile
	// Tuning.NarrowTiles turns off.
	TuneTiles Tunable = 1 << iota
	// TuneBlock: the block geometry is Tuning.BlockR x BlockC.
	TuneBlock
)

// Builder constructs a format from a CSR matrix.
type Builder struct {
	Name string
	// Build constructs the format with the zero Tuning.
	Build func(m *matrix.CSR) (Format, error)
	// Tunables is the set of Tuning parameter groups the format reads.
	Tunables Tunable
	tuned    func(m *matrix.CSR, t Tuning) (Format, error)
}

// BuildTuned constructs the format with the given tuning; parameters the
// format does not have are ignored.
func (b Builder) BuildTuned(m *matrix.CSR, t Tuning) (Format, error) {
	if b.tuned == nil {
		return b.Build(m)
	}
	return b.tuned(m, t)
}

func builder(name string, tunables Tunable, tuned func(m *matrix.CSR, t Tuning) (Format, error)) Builder {
	return Builder{
		Name:     name,
		Build:    func(m *matrix.CSR) (Format, error) { return tuned(m, Tuning{}) },
		Tunables: tunables,
		tuned:    tuned,
	}
}

// Registry returns all format builders in a stable order: the
// state-of-practice formats first, then the research formats, then the
// extension.
func Registry() []Builder { return append([]Builder(nil), registry...) }

var registry = []Builder{
	builder("COO", 0, func(m *matrix.CSR, _ Tuning) (Format, error) { return NewCOO(m), nil }),
	builder("Naive-CSR", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return newCSR(m, t), nil }),
	builder("Vec-CSR", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return newVecCSR(m, t), nil }),
	builder("Bal-CSR", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return newBalCSR(m, t), nil }),
	builder("MKL-IE", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return newInspectorCSR(m, t), nil }),
	builder("ELL", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return asFormat(newELL(m, t)) }),
	builder("HYB", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return asFormat(newHYB(m, t)) }),
	builder("CSR5", 0, func(m *matrix.CSR, _ Tuning) (Format, error) { return asFormat(NewCSR5(m)) }),
	builder("Merge-CSR", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) { return newMergeCSR(m, t), nil }),
	builder("SELL-C-s", TuneTiles, func(m *matrix.CSR, t Tuning) (Format, error) {
		return asFormat(newSELLCS(m, DefaultChunkC(), DefaultSigma, t))
	}),
	builder("SparseX", 0, func(m *matrix.CSR, _ Tuning) (Format, error) { return NewSPX(m), nil }),
	builder("BCSR", TuneTiles|TuneBlock, func(m *matrix.CSR, t Tuning) (Format, error) { return asFormat(newBCSR(m, t)) }),
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
