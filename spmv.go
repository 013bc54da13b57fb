// Package spmv is the public facade of this repository: a feature-based
// SpMV performance-analysis toolkit reproducing Mpakos et al., "Feature-
// based SpMV Performance Analysis on Contemporary Devices" (IPDPS 2023;
// DBLP key conf/ipps/MpakosGAPKG23).
//
// It re-exports the stable surface of the internal packages:
//
//   - sparse matrices (CSR/COO, MatrixMarket I/O) and the five-feature
//     extraction of Section III-A;
//   - the artificial matrix generator of Section III-B;
//   - eleven storage formats with serial and parallel SpMV kernels,
//     dispatched on an execution engine with one lazily started worker
//     pool, the caller as lane 0, and spawned lanes for a call that finds
//     it busy (see internal/exec);
//   - analytical models of the paper's nine testbeds, plus a native engine
//     measuring real kernels on the host CPU;
//   - automatic format selection (Auto, NewUpdatable) whose remembered
//     measurement — one decision cache, which the k-NN vote reads, and
//     its journal — has one owner, a Session; the package-level functions act on DefaultSession();
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation, on the nine testbeds or measured on the host.
//
// Quick start:
//
//	m, err := spmv.Generate(spmv.GeneratorParams{
//		Rows: 100000, Cols: 100000,
//		AvgNNZPerRow: 20, StdNNZPerRow: 6,
//		SkewCoeff: 10, BWScaled: 0.3,
//		CrossRowSim: 0.5, AvgNumNeigh: 1.0, Seed: 42,
//	})
//	fv := spmv.Extract(m)
//	for _, b := range spmv.Formats() {
//		f, err := b.Build(m)
//		...
//	}
package spmv

import (
	"context"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/session"
	"repro/internal/simd"
	"repro/internal/update"
)

// Core matrix types.
type (
	// Matrix is a sparse matrix in CSR form, the substrate every format
	// builds from.
	Matrix = matrix.CSR
	// Triplets is a sparse matrix in coordinate form.
	Triplets = matrix.COO
	// Features is a point in the paper's five-feature space.
	Features = core.FeatureVector
	// GeneratorParams configures the artificial matrix generator
	// (Listing 1 of the paper).
	GeneratorParams = gen.Params
	// Format is a built storage format with SpMV kernels.
	Format = formats.Format
	// FormatBuilder constructs a Format from a CSR matrix.
	FormatBuilder = formats.Builder
	// Device describes one of the paper's nine testbeds.
	Device = device.Spec
	// Prediction is a device-model performance/power estimate.
	Prediction = device.Result
	// Experiment regenerates one of the paper's tables or figures.
	Experiment = bench.Experiment
	// ExperimentOptions configures an experiment run.
	ExperimentOptions = bench.Options
	// Report is a rendered experiment result table.
	Report = bench.Report
	// AutoOptions configures the automatic format selection of Auto.
	AutoOptions = selector.AutoOptions
	// AutoFormat is a Format chosen by the selection subsystem; it
	// delegates every kernel to the chosen concrete format and carries the
	// decision record (Chosen, Choice).
	AutoFormat = formats.Auto
	// Updatable is a concurrently updatable matrix: a read-optimized base
	// format fused with a delta overlay (see NewUpdatable).
	Updatable = update.Updatable
	// UpdateOptions configures an Updatable.
	UpdateOptions = update.Options
	// UpdateStats is a point-in-time view of an Updatable's internals.
	UpdateStats = update.Stats
)

// Extract measures the exact feature vector of a matrix in one pass over its
// nonzeros (Auto reads a bounded sample of it instead, core.Estimate).
func Extract(m *Matrix) Features { return core.Extract(m) }

// Generate builds an artificial matrix matching the requested features.
func Generate(p GeneratorParams) (*Matrix, error) { return gen.Generate(p) }

// GenerateFromFeatures derives generator parameters from a feature-space
// point and builds the matrix.
func GenerateFromFeatures(fv Features, seed int64) (*Matrix, error) {
	return gen.Generate(gen.FromFeatures(fv, seed))
}

// Formats returns every storage format builder, state-of-practice first.
func Formats() []FormatBuilder { return formats.Registry() }

// Argument errors returned by the Multiply entry points. They replace the
// panics (and, for short slices, silent corruption) a served system cannot
// afford; test with errors.Is. The identities live in internal/formats so
// the serving layer (internal/serve) maps the very same errors to HTTP
// statuses a linked caller would see from the facade.
var (
	// ErrNilFormat reports a nil Format argument.
	ErrNilFormat = formats.ErrNilFormat
	// ErrInvalidK reports a non-positive right-hand-side count.
	ErrInvalidK = formats.ErrInvalidK
	// ErrDimension reports x or y vectors (nil, short, or long) that do
	// not match the matrix shape and k.
	ErrDimension = formats.ErrDimension
)

// PanicError is a kernel panic contained by the execution engine: the
// worker recovered, the pool stayed serviceable, and the Multiply entry
// points return the panic as this error (errors.As). See internal/exec.
type PanicError = exec.PanicError

// apply is the one path every facade multiply takes: Format.Apply on the
// execution engine with the machine's parallelism.
func apply(ctx context.Context, f Format, y, x []float64, k int) error {
	if f == nil {
		return ErrNilFormat
	}
	return f.Apply(ctx, y, x, k, exec.MaxWorkers())
}

// Multiply computes y = A*x on the execution engine with the machine's
// parallelism. It validates its arguments (ErrNilFormat, ErrDimension)
// instead of panicking, and a kernel panic on any lane comes back as a
// *PanicError with the engine still serviceable; nil error means y holds
// the product.
func Multiply(f Format, y, x []float64) error {
	return apply(context.Background(), f, y, x, 1)
}

// MultiplyCtx is Multiply under a context: the deadline or cancellation
// propagates into the execution engine, whose worker lanes poll it at
// partition-chunk granularity — a cancelled call returns the context's
// error (context.Canceled, context.DeadlineExceeded) within a bounded
// latency instead of finishing its sweep, and y must then be treated as
// garbage. Every format honors it (see docs/ARCHITECTURE.md, "The kernel
// contract"); the formats whose lanes cut inside rows stop between lanes
// rather than inside one.
func MultiplyCtx(ctx context.Context, f Format, y, x []float64) error {
	return apply(ctx, f, y, x, 1)
}

// MultiplyMany computes Y = A*X for a block of k dense right-hand sides at
// once (SpMM). X and Y are row-major: X holds k values per matrix column
// (len cols*k) and Y k values per row (len rows*k). Hot formats (CSR
// family, HYB, SELL-C-s, BCSR, COO) run fused register-tiled kernels
// that stream the matrix once per tile of 4 vectors — every loaded nonzero
// feeds k FMAs instead of one — on the same worker pool as the
// single-vector kernels; the remaining formats multiply one vector at
// a time. This is the kernel block Krylov solvers and multi-query
// inference issue per iteration. Arguments are validated (ErrNilFormat,
// ErrInvalidK, ErrDimension) instead of panicking.
func MultiplyMany(f Format, y, x []float64, k int) error {
	return apply(context.Background(), f, y, x, k)
}

// MultiplyManyCtx is MultiplyMany under a context, with MultiplyCtx's
// cancellation-latency, partial-result and panic-containment contract.
func MultiplyManyCtx(ctx context.Context, f Format, y, x []float64, k int) error {
	return apply(ctx, f, y, x, k)
}

// SIMDInfo reports the active dispatch configuration: the instruction-set
// level the kernels currently run at ("scalar", "avx2", "avx512") — the
// widest detected tier under the cap — the vector width in float64 lanes,
// and the CPU feature set detected at startup (which may exceed the active
// level: detection reports what the host has, dispatch uses what the
// kernels support, and the SPMV_SIMD_LEVEL environment variable or
// SetSIMDLevel can cap the tier below the hardware's).
func SIMDInfo() (level string, width int, features []string) {
	return simd.Level(), simd.Width(), simd.Features()
}

// SetSIMDLevel re-caps the dispatch tier at runtime: "scalar", "avx2",
// "avx512" or "auto" (the boot default, also reachable via the
// SPMV_SIMD_LEVEL environment variable), read in any case as that
// variable is; an unknown token means "auto". The dispatch is the widest
// detected tier under the cap, so "auto" and "avx512" install the same
// table. Returns the previous cap token, so
// SetSIMDLevel(SetSIMDLevel("avx2")) restores the prior dispatch exactly.
// Quiesce in-flight kernels before switching.
func SetSIMDLevel(cap string) string { return simd.SetLevel(cap) }

// SIMDDispatch reports the per-kernel dispatch table: which
// implementation tier ("scalar", "avx2", "avx512") serves each named
// micro-kernel right now. The keys are the dispatch layer's kernel names
// (e.g. "csr.dot-gather", "bcsr.2x2"); see docs/ARCHITECTURE.md, "The
// dispatch layer".
func SIMDDispatch() map[string]string {
	t := simd.Table()
	out := make(map[string]string, len(t))
	for _, e := range t {
		out[e.Kernel] = e.Impl
	}
	return out
}

// Auto selects a storage format for the matrix and builds it — the
// paper's feature analysis driving execution. The five-feature vector is
// extracted, a k-regime-aware device model shortlists candidate formats
// (k = 1 and k = 8 rank formats differently; set AutoOptions.K to the
// workload's block width), a k-NN vote over the decisions probed before
// promotes the measured winner of any similar matrix, an optional
// micro-probe times the shortlist on a row-sampled sub-matrix through the
// execution engine, and the winner is built. Decisions are cached by
// (matrix fingerprint, device, k), so rebuilding the same matrix
// under the same context is instant — and with persistence on (SetCacheDir
// or SPMV_CACHE_DIR) decisions, with their probe samples, survive
// restarts.
//
//	f, err := spmv.Auto(m, spmv.AutoOptions{K: 8, Probe: true})
//	// f.Chosen() names the picked format; f is a regular Format.
func Auto(m *Matrix, o AutoOptions) (*AutoFormat, error) { return session.Default().Auto(m, o) }

// AutoCtx is Auto under a context: the shortlist micro-probe checks the
// context between candidates (each candidate's timed runs finish, so a
// cancelled selection returns within one candidate's probe budget), and a
// cancelled or expired context aborts the selection with the context's
// error before the winner is built. The decision cache is only written for
// completed selections.
func AutoCtx(ctx context.Context, m *Matrix, o AutoOptions) (*AutoFormat, error) {
	return session.Default().AutoCtx(ctx, m, o)
}

// SetCacheDir turns on the default session's persistence layer: its
// decisions (each with its probe sample) journal through an
// append-only JSONL file in dir and load from it immediately, so a
// restarted process re-resolves every previously-seen (matrix, device, k)
// context without ranking or probing. An empty dir resolves the
// default location — the SPMV_CACHE_DIR environment variable, then
// <user cache dir>/go-spmv. Setting SPMV_CACHE_DIR alone enables the same
// behavior with zero code changes; without either, nothing touches disk.
// The journal is corruption-tolerant (bad lines are skipped) and is
// invalidated wholesale when the schema version or host fingerprint
// changes — see docs/ARCHITECTURE.md, "The persistence layer".
func SetCacheDir(dir string) error { return session.Default().Persist(dir) }

// UnsetCacheDir turns persistence back off: the default session's journal
// is detached and closed. In-memory caches keep their contents; nothing
// further touches disk.
func UnsetCacheDir() { _ = session.Default().Close() }

// NewUpdatable wraps a matrix in a concurrently updatable form: a
// read-optimized base (chosen automatically, or pinned via
// UpdateOptions.Format) plus a delta log, multiplied as the base's own
// dispatch and then the overlay, added on the calling goroutine.
// Set/Add/Delete take one short lock that orders them and never block
// multiplies; every multiply observes a consistent prefix of the update
// order. When the overlay
// crosses the compaction threshold, a background compactor folds it into
// a fresh matrix, re-runs format selection (the decision journal makes
// warm re-decisions zero-probe), and swaps epochs without stalling
// readers. The result is a regular Format usable anywhere one is.
//
//	u, err := spmv.NewUpdatable(m, spmv.UpdateOptions{K: 8})
//	u.Set(i, j, 3.5)  // concurrent with u.SpMVParallel(...)
func NewUpdatable(m *Matrix, o UpdateOptions) (*Updatable, error) {
	return session.Default().NewUpdatable(m, o)
}

// FormatByName finds a format builder.
func FormatByName(name string) (FormatBuilder, bool) { return formats.Lookup(name) }

// Devices returns the paper's nine testbeds (Table II).
func Devices() []Device { return device.Testbeds() }

// DeviceByName finds a testbed, or "host", the model of this machine.
func DeviceByName(name string) (Device, bool) { return device.ByName(name) }

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return matrix.ReadMatrixMarket(r) }

// WriteMatrixMarket writes a matrix as MatrixMarket coordinate real general.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return matrix.WriteMatrixMarket(w, m) }

// Experiments lists every table/figure runner in paper order.
func Experiments() []Experiment { return bench.Experiments() }

// ExperimentByID finds an experiment runner ("fig3", "table4", ...).
func ExperimentByID(id string) (Experiment, bool) { return bench.ByID(id) }
