package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/session"
	"repro/internal/update"
)

// UploadSpec describes one matrix to host: either an inline MatrixMarket
// body or a generator parameter set (exactly one), plus hosting options.
type UploadSpec struct {
	// Name is a human label carried in listings; optional.
	Name string `json:"name,omitempty"`
	// MatrixMarket is an inline MatrixMarket coordinate stream.
	MatrixMarket string `json:"matrixmarket,omitempty"`
	// Generator builds an artificial matrix instead (Listing 1 of the
	// paper; the same parameter set spmv-gen takes).
	Generator *gen.Params `json:"generator,omitempty"`
	// Updatable hosts the matrix behind a concurrent delta overlay
	// (spmv.NewUpdatable): the cell endpoints accept Set/Delete and
	// multiplies observe a consistent prefix of the update order.
	Updatable bool `json:"updatable,omitempty"`
	// K hints the right-hand-side regime to format selection (0: the
	// registry session's default). Coalesced batches are capped
	// independently by the server's max-batch configuration.
	K int `json:"k,omitempty"`
	// Probe lets selection micro-probe its shortlist for this matrix.
	Probe bool `json:"probe,omitempty"`
}

// Hosted is one matrix the registry serves, addressed by the structural
// fingerprint of its sparsity pattern (PR 4's matrix.CSR.Fingerprint).
type Hosted struct {
	fp       uint64
	valSum   uint64
	name     string
	created  time.Time
	m        *matrix.CSR
	upd      *update.Updatable // non-nil when hosted updatable
	surface  formats.Format    // what multiplies dispatch on (auto or upd)
	chosenAt string            // format chosen at build; updatables drift
	co       *Coalescer
	bufs     sync.Pool // *multiplyBufs sized for this matrix
}

// getBufs leases a multiply working set: x with room for every column, y
// with an entry per row.
func (h *Hosted) getBufs() *multiplyBufs {
	if b, ok := h.bufs.Get().(*multiplyBufs); ok {
		return b
	}
	return &multiplyBufs{x: make([]float64, 0, h.co.cols), y: make([]float64, h.co.rows)}
}

// FP returns the fingerprint key clients address this matrix by
// (zero-padded lowercase hex of the structural hash).
func (h *Hosted) FP() string { return fpKey(h.fp) }

// Updatable returns the delta overlay when hosted updatable, else nil.
func (h *Hosted) Updatable() *update.Updatable { return h.upd }

// Coalescer returns the matrix's batching front end.
func (h *Hosted) Coalescer() *Coalescer { return h.co }

// Info is the wire description of a hosted matrix.
type Info struct {
	Fingerprint string         `json:"fingerprint"`
	Name        string         `json:"name,omitempty"`
	Rows        int            `json:"rows"`
	Cols        int            `json:"cols"`
	NNZ         int64          `json:"nnz"`
	Format      string         `json:"format"`
	Updatable   bool           `json:"updatable"`
	Created     time.Time      `json:"created"`
	Batching    CoalescerStats `json:"batching"`
}

// Info snapshots the hosted matrix's wire description.
func (h *Hosted) Info() Info {
	info := Info{
		Fingerprint: h.FP(),
		Name:        h.name,
		Rows:        h.surface.Rows(),
		Cols:        h.surface.Cols(),
		NNZ:         h.surface.NNZ(),
		Format:      h.chosenAt,
		Updatable:   h.upd != nil,
		Created:     h.created,
		Batching:    h.co.Stats(),
	}
	if h.upd != nil {
		st := h.upd.Stats()
		info.Format = st.BaseFormat // compaction re-selects; report live
		info.NNZ = h.upd.NNZ()
	}
	return info
}

// Registry hosts matrices for the serving layer: upload/build once,
// address by fingerprint, multiply through a per-matrix coalescer. All
// methods are safe for concurrent use.
type Registry struct {
	sess     *session.Session
	base     context.Context
	maxBatch int

	mu     sync.Mutex
	m      map[uint64]*Hosted
	closed bool
}

// NewRegistry builds a registry serving under the given session (nil: the
// process default session) and server-lifetime context. maxBatch
// configures every hosted matrix's coalescer.
func NewRegistry(base context.Context, sess *session.Session, maxBatch int) *Registry {
	if base == nil {
		base = context.Background()
	}
	if sess == nil {
		sess = session.Default()
	}
	return &Registry{
		sess:     sess,
		base:     base,
		maxBatch: maxBatch,
		m:        make(map[uint64]*Hosted),
	}
}

// fpKey renders a fingerprint the way clients address it.
func fpKey(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// parseFP parses a client fingerprint key: exactly 16 hex digits.
func parseFP(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil || len(s) != 16 {
		return 0, fmt.Errorf("%w: fingerprint %q (want 16 hex digits)", ErrBadRequest, s)
	}
	return fp, nil
}

// valueSum hashes the value array (FNV-1a over the bit patterns): the
// structural fingerprint deliberately ignores values, so the registry
// needs this second hash to detect an upload that reuses a hosted
// structure with different numbers — which must conflict, not silently
// serve the incumbent's values.
func valueSum(m *matrix.CSR) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range m.Val {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= (bits >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return h
}

// upload builds and hosts the matrix described by spec, with the
// MatrixMarket text as bytes, which the HTTP handler decodes in place
// (DecodeUpload); spec.MatrixMarket is ignored. It returns the hosted
// entry and whether this call created it. Re-uploading an identical
// matrix (structure and values) is idempotent and returns the incumbent;
// a structural collision with different values is ErrConflict.
func (r *Registry) upload(ctx context.Context, spec UploadSpec, mm []byte) (*Hosted, bool, error) {
	m, err := buildMatrix(spec, mm)
	if err != nil {
		return nil, false, err
	}
	fp := m.Fingerprint()
	vs := valueSum(m)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	if h, ok := r.m[fp]; ok {
		r.mu.Unlock()
		if h.valSum != vs {
			return nil, false, fmt.Errorf("%w: %s", ErrConflict, fpKey(fp))
		}
		return h, false, nil
	}
	r.mu.Unlock()

	// Build outside the lock: selection may probe for milliseconds and
	// must not stall unrelated lookups. A concurrent identical upload may
	// also build; the second insert loses and its build is discarded.
	h, err := r.host(ctx, spec, m, fp, vs)
	if err != nil {
		return nil, false, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	if prev, ok := r.m[fp]; ok {
		r.mu.Unlock()
		if prev.valSum != vs {
			return nil, false, fmt.Errorf("%w: %s", ErrConflict, fpKey(fp))
		}
		return prev, false, nil
	}
	r.m[fp] = h
	r.mu.Unlock()
	return h, true, nil
}

// buildMatrix materializes the upload's matrix from exactly one source:
// the MatrixMarket text mm or spec's generator.
func buildMatrix(spec UploadSpec, mm []byte) (*matrix.CSR, error) {
	switch {
	case len(mm) > 0 && spec.Generator != nil:
		return nil, fmt.Errorf("%w: give matrixmarket or generator, not both", ErrBadRequest)
	case len(mm) > 0:
		m, err := matrix.ParseMatrixMarket(mm)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return m, nil
	case spec.Generator != nil:
		return gen.Generate(*spec.Generator)
	default:
		return nil, fmt.Errorf("%w: give matrixmarket or generator", ErrBadRequest)
	}
}

// host runs format selection (and the updatable wrap) for one new matrix.
func (r *Registry) host(ctx context.Context, spec UploadSpec, m *matrix.CSR, fp, vs uint64) (*Hosted, error) {
	h := &Hosted{fp: fp, valSum: vs, name: spec.Name, created: time.Now(), m: m}
	if spec.Updatable {
		u, err := r.sess.NewUpdatable(m, update.Options{K: spec.K, Probe: spec.Probe})
		if err != nil {
			return nil, err
		}
		h.upd = u
		h.surface = u
		h.chosenAt = u.Stats().BaseFormat
	} else {
		a, err := r.sess.AutoCtx(ctx, m, selector.AutoOptions{K: spec.K, Probe: spec.Probe})
		if err != nil {
			return nil, err
		}
		h.surface = a
		h.chosenAt = a.Chosen()
	}
	h.co = NewCoalescer(r.base, h.surface, r.maxBatch)
	return h, nil
}

// Get finds a hosted matrix by its fingerprint key.
func (r *Registry) Get(fpStr string) (*Hosted, error) {
	fp, err := parseFP(fpStr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	h, ok := r.m[fp]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fpKey(fp))
	}
	return h, nil
}

// Delete unhosts a matrix. In-flight and queued requests drain (the
// coalescer refuses new ones); the entry leaves the address space at once.
func (r *Registry) Delete(fpStr string) error {
	fp, err := parseFP(fpStr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	h, ok := r.m[fp]
	delete(r.m, fp)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, fpKey(fp))
	}
	h.co.Close()
	return nil
}

// List snapshots every hosted matrix's description, oldest first.
func (r *Registry) List() []Info {
	r.mu.Lock()
	hs := make([]*Hosted, 0, len(r.m))
	for _, h := range r.m {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	sort.Slice(hs, func(a, b int) bool {
		if hs[a].created.Equal(hs[b].created) {
			return hs[a].fp < hs[b].fp
		}
		return hs[a].created.Before(hs[b].created)
	})
	out := make([]Info, len(hs))
	for i, h := range hs {
		out[i] = h.Info()
	}
	return out
}

// Len returns how many matrices are hosted.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Close refuses further uploads and multiplies on every hosted matrix.
// Every admitted request still receives its response.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	hs := make([]*Hosted, 0, len(r.m))
	for _, h := range r.m {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	for _, h := range hs {
		h.co.Close()
	}
}
