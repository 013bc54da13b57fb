package cache

// TuneKey identifies one autotuned structural parameter: the matrix
// (fingerprint), the device the measurement targeted, the RHS-count
// regime, and the parameter name ("bcsr.block", "spmm.tile", ...). The
// dispatch level is not part of the key — the journal scopes records to
// the level they were measured under (see EffectiveLevel), and within a
// process only one level's records are loaded.
type TuneKey struct {
	Fingerprint uint64 // matrix.CSR.Fingerprint()
	Device      string // device.Spec.Name the measurement targeted
	K           int    // right-hand-side count the winner targets
	Param       string // parameter name, e.g. "bcsr.block"
}

func (k TuneKey) fingerprint() uint64 { return k.Fingerprint }

// DefaultTuneCap bounds the in-memory tune cache; like decisions, colder
// winners survive in the journal and re-warm on the next restart.
const DefaultTuneCap = 4096

// TuneCache is a concurrency-safe, LRU-bounded store of autotune winners
// (parameter name -> winning value, e.g. "bcsr.block" -> "4x4"),
// optionally journal-backed so tuning is paid once per fingerprint:
// repeated Auto builds of the same matrix reuse measured block shapes and
// tile widths instead of re-sweeping. The zero value is not usable;
// construct with NewTuneCache.
type TuneCache struct {
	journaledLRU[TuneKey, string]
}

// NewTuneCache returns an empty tune cache bounded at DefaultTuneCap.
func NewTuneCache() *TuneCache {
	c := &TuneCache{}
	c.init(DefaultTuneCap, (*Store).Tunes, (*Store).AppendTune)
	return c
}
