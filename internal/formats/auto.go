package formats

// fusedMulti names the formats whose apply takes k > 1 — a register-tiled
// loop where every loaded nonzero feeds k FMAs; the rest run the driver's
// by-column fallback, one single-vector dispatch per right-hand side. It is
// the one declaration of fused-ness: driver.bind reads it by the kernel's
// name, the device model (FusedMulti) before any instance exists.
var fusedMulti = map[string]bool{
	"Naive-CSR": true, "Vec-CSR": true, "Bal-CSR": true, "MKL-IE": true,
	"ELL": true, "HYB": true, "SELL-C-s": true, "BCSR": true, "COO": true,
}

// FusedMulti reports whether the named format multiplies a k-wide block of
// right-hand sides in one fused pass over the matrix. Fused formats gain
// arithmetic intensity with k (the matrix stream is amortized over k
// vectors); fallback formats keep their single-vector rate, which is why
// the k = 1 and k > 1 regimes rank formats differently.
func FusedMulti(name string) bool { return fusedMulti[name] }

// AutoChoice records how the selection subsystem arrived at a format
// choice. It is attached to the Auto wrapper so callers (CLIs, benchmarks,
// tests) can see the decision, not just its result.
type AutoChoice struct {
	Format    string             // chosen format name
	Device    string             // device spec consulted for the ranking
	K         int                // RHS-count regime of the decision
	Shortlist []string           // model ranking, best first
	Probed    bool               // a micro-probe timed the shortlist
	Cached    bool               // decision came from the decision cache
	Voted     bool               // the k-NN vote over measured samples steered the shortlist
	ProbeNs   map[string]float64 // measured ns/op per probed candidate
}

// Auto is the storage format produced by the selection subsystem: a thin
// wrapper that delegates every kernel to the concrete format the selector
// chose, carrying the decision record alongside. Numerically, an Auto is
// bit-identical to its chosen format — only Name is overridden so reports
// show the choice was automatic.
type Auto struct {
	Format
	choice AutoChoice
}

// NewAuto wraps the chosen concrete format with its decision record.
func NewAuto(f Format, choice AutoChoice) *Auto {
	choice.Format = f.Name()
	return &Auto{Format: f, choice: choice}
}

// Name identifies the wrapper and the concrete choice, e.g. "Auto[CSR5]".
func (a *Auto) Name() string { return "Auto[" + a.Format.Name() + "]" }

// Chosen returns the chosen concrete format's name.
func (a *Auto) Chosen() string { return a.Format.Name() }

// Choice returns the full decision record.
func (a *Auto) Choice() AutoChoice { return a.choice }

// Unwrap returns the chosen concrete format.
func (a *Auto) Unwrap() Format { return a.Format }
