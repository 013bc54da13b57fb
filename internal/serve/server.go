// Package serve is the matrix-hosting layer behind cmd/spmv-serve: a
// registry of built matrices addressed by structural fingerprint, a
// per-matrix batch coalescer that gathers concurrent single-vector
// multiplies into fused MultiplyMany calls, and the HTTP surface tying
// them together. Every response uses one JSON envelope and every error
// maps to its HTTP status through exactly one table (StatusOf).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/session"
	"repro/internal/simd"
)

// envelope is the uniform response shape: {"ok":true,"data":...} or
// {"ok":false,"error":{"code":...,"message":...}}.
type envelope struct {
	OK    bool       `json:"ok"`
	Data  any        `json:"data,omitempty"`
	Error *wireError `json:"error,omitempty"`
}

type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// MultiplyRequest is the body of POST /v1/matrices/{fp}/multiply.
type MultiplyRequest struct {
	X []float64 `json:"x"`
}

// MultiplyResponse carries the result vector and how it was served.
type MultiplyResponse struct {
	Y     []float64 `json:"y"`
	Batch int       `json:"batch"` // size of the kernel batch that served it
}

// CellOp is one entry of POST /v1/matrices/{fp}/cells: set a value or
// delete (structurally zero) a cell of an updatable-hosted matrix.
type CellOp struct {
	Row    int     `json:"row"`
	Col    int     `json:"col"`
	Val    float64 `json:"val"`
	Delete bool    `json:"delete,omitempty"`
}

// UploadResponse answers an upload with the address to multiply against.
type UploadResponse struct {
	Info    Info `json:"info"`
	Created bool `json:"created"` // false: idempotent re-upload of an incumbent
}

// Server is the HTTP daemon: a Registry plus routing, the response
// envelope, and a drain-bounded graceful shutdown.
type Server struct {
	reg   *Registry
	sess  *session.Session // non-nil only when NewServer opened it: Shutdown closes what it owns
	cfg   Config
	http  *http.Server
	lis   net.Listener
	base  context.Context
	abort context.CancelFunc // cancels base: the drain hard deadline

	mu   sync.Mutex
	done chan struct{} // closed when Serve returns
}

// NewServer wires a server from cfg. The session is built from the
// config's CacheDir/K/Probe and closed by Shutdown; pass a non-nil
// sess to share one (e.g. the default session, or one journal between two
// servers) instead — a supplied session stays open, its owner closes it.
func NewServer(cfg Config, sess *session.Session) (*Server, error) {
	var own *session.Session
	if sess == nil {
		var err error
		own, err = session.New(session.Options{
			CacheDir: cfg.CacheDir,
			K:        cfg.K,
			Probe:    cfg.Probe,
		})
		if err != nil {
			return nil, err
		}
		sess = own
	}
	base, abort := context.WithCancel(context.Background())
	s := &Server{
		reg:   NewRegistry(base, sess, cfg.MaxBatch),
		sess:  own,
		cfg:   cfg,
		base:  base,
		abort: abort,
		done:  make(chan struct{}),
	}
	s.http = &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Registry exposes the server's registry (tests drive it directly).
func (s *Server) Registry() *Registry { return s.reg }

// routes builds the method+wildcard mux (Go 1.22 patterns).
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/matrices", s.handleUpload)
	mux.HandleFunc("GET /v1/matrices", s.handleList)
	mux.HandleFunc("GET /v1/matrices/{fp}", s.handleGet)
	mux.HandleFunc("DELETE /v1/matrices/{fp}", s.handleDelete)
	mux.HandleFunc("POST /v1/matrices/{fp}/multiply", s.handleMultiply)
	mux.HandleFunc("POST /v1/matrices/{fp}/cells", s.handleCells)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	return mux
}

// Listen binds the configured address. Call before Serve to learn the
// bound address (Addr) when the config asked for ":0".
func (s *Server) Listen() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Addr returns the bound listen address (after Listen).
func (s *Server) Addr() string {
	if s.lis == nil {
		return s.cfg.Addr
	}
	return s.lis.Addr().String()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown, the listener error otherwise.
func (s *Server) Serve() error {
	if s.lis == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	defer close(s.done)
	err := s.http.Serve(s.lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: stop accepting, wait for
// in-flight handlers (each matrix's running kernel call serves the
// requests queued behind it), then close the registry. Past the drain
// timeout the base context is cancelled: in-flight kernels cancel and
// their waiters get the typed cancellation — every admitted request gets
// a response, none hang.
func (s *Server) Shutdown(ctx context.Context) error {
	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()

	// Hard deadline: when the drain window lapses, cancel the
	// server-lifetime context so batched kernels stop cooperatively.
	stop := context.AfterFunc(drainCtx, s.abort)
	defer stop()

	err := s.http.Shutdown(drainCtx)
	s.reg.Close()
	if s.sess != nil {
		s.sess.Close()
	}
	return err
}

// writeEnvelope emits the uniform response shape with StatusOf's status.
func writeEnvelope(w http.ResponseWriter, data any, err error) {
	status, _ := StatusOf(err)
	writeEnvelopeStatus(w, status, data, err)
}

// writeEnvelopeStatus marshals the envelope before the header goes out, so
// data that JSON cannot carry answers a typed 500 and not the promised
// status over an empty body.
func writeEnvelopeStatus(w http.ResponseWriter, status int, data any, err error) {
	env := envelope{OK: err == nil, Data: data}
	if err != nil {
		_, code := StatusOf(err)
		env.Error = &wireError{Code: code, Message: err.Error()}
	}
	var buf bytes.Buffer
	if merr := json.NewEncoder(&buf).Encode(env); merr != nil {
		// An error envelope is two strings and always marshals.
		writeEnvelope(w, nil, fmt.Errorf("encode response: %w", merr))
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends one complete JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) // a failed write means the client is gone
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeEnvelope(w, map[string]any{"status": "ok", "matrices": s.reg.Len()}, nil)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var spec UploadSpec
	var mm []byte
	body, err := readBody(r, nil, maxBodyBytes)
	if err == nil {
		spec, mm, err = DecodeUpload(body)
	}
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	h, created, err := s.reg.upload(r.Context(), spec, mm)
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeEnvelopeStatus(w, status, UploadResponse{Info: h.Info(), Created: created}, nil)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeEnvelope(w, s.reg.List(), nil)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	h, err := s.reg.Get(r.PathValue("fp"))
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	writeEnvelope(w, h.Info(), nil)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("fp")); err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	writeEnvelope(w, map[string]string{"deleted": r.PathValue("fp")}, nil)
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	h, err := s.reg.Get(r.PathValue("fp"))
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	b := h.getBufs()
	if serveMultiply(w, r, h.co, b) {
		h.bufs.Put(b)
	}
}

// serveMultiply answers one multiply out of the working set b and reports
// whether b may be reused (the ownership rule in codec.go). Every response
// that got past reading the body carries the stages it reached in a
// Server-Timing header.
func serveMultiply(w http.ResponseWriter, r *http.Request, co *Coalescer, b *multiplyBufs) bool {
	var err error
	limit := int64(co.cols)*multiplyBytesPerCol + multiplyBodySlack
	if b.body, err = readBody(r, b.body, limit); err != nil {
		writeEnvelope(w, nil, err)
		return true
	}
	clock := &b.clock
	clock.start()
	b.x, err = DecodeMultiplyRequest(b.x, b.body, co.cols)
	clock.stamp()
	if err != nil {
		clock.header(w.Header())
		writeEnvelope(w, nil, err)
		return true
	}
	res, released := co.multiplyInto(r.Context(), b.y, b.x)
	clock.stampAt(res.began)
	clock.stamp()
	if err = res.err; err == nil {
		b.resp, err = AppendMultiplyResponse(b.resp[:0], b.y, res.batch)
		clock.stamp()
	}
	clock.header(w.Header())
	if err != nil {
		writeEnvelope(w, nil, err)
		return released
	}
	writeBody(w, http.StatusOK, b.resp)
	return true
}

// stageNames are a multiply's timed stages in order: decode parses the
// body; wait runs until the kernel call that serves the request begins (0
// when the request runs its own call); kernel is that call with a batch's
// gather and scatter; encode formats the response.
var stageNames = [...]string{"decode", "wait", "kernel", "encode"}

// stageClock times one multiply's stages: at[0] is when decode began and
// at[i] when stage i-1 ended. It lives on the pooled working set, so
// stamping allocates nothing.
type stageClock struct {
	at  [len(stageNames) + 1]time.Time
	n   int // stamps taken
	hdr []byte
	val [1]string
}

func (c *stageClock) start() {
	c.n = 0
	c.stamp()
}

func (c *stageClock) stamp() { c.stampAt(time.Now()) }

// stampAt ends the current stage at t; the zero t ends it where the
// previous stage ended.
func (c *stageClock) stampAt(t time.Time) {
	if t.IsZero() {
		t = c.at[c.n-1]
	}
	c.at[c.n] = t
	c.n++
}

// header sets h's Server-Timing to the stages stamped so far, in
// milliseconds at microsecond resolution. The value's string is the one
// allocation; its slice is c.val, which WriteHeader copies out of h before
// the handler returns the working set to the pool.
func (c *stageClock) header(h http.Header) {
	c.hdr = c.hdr[:0]
	for i := 1; i < c.n; i++ {
		if i > 1 {
			c.hdr = append(c.hdr, ", "...)
		}
		c.hdr = append(c.hdr, stageNames[i-1]...)
		c.hdr = append(c.hdr, ";dur="...)
		us := c.at[i].Sub(c.at[i-1]).Microseconds()
		c.hdr = strconv.AppendFloat(c.hdr, float64(us)/1e3, 'f', 3, 64)
	}
	c.val[0] = string(c.hdr)
	h["Server-Timing"] = c.val[:]
}

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	h, err := s.reg.Get(r.PathValue("fp"))
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	var ops []CellOp
	body, err := readBody(r, nil, maxBodyBytes)
	if err == nil {
		if jerr := json.Unmarshal(body, &ops); jerr != nil {
			err = fmt.Errorf("%w: %v", ErrBadRequest, jerr)
		}
	}
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	applied, err := applyCells(h, ops)
	if err != nil {
		writeEnvelope(w, nil, err)
		return
	}
	writeEnvelope(w, map[string]any{"applied": applied, "nnz": h.upd.NNZ()}, nil)
}

// applyCells validates and applies cell updates against an updatable
// host. Bounds are checked up front — Updatable.Set panics on
// out-of-range indices, and a client typo must be a typed 400, not a
// contained panic's 500. Ops before the offending one stay applied (the
// response says how many).
func applyCells(h *Hosted, ops []CellOp) (int, error) {
	if h.upd == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotUpdatable, h.FP())
	}
	rows, cols := h.surface.Rows(), h.surface.Cols()
	applied := 0
	for i, op := range ops {
		if op.Row < 0 || op.Row >= rows || op.Col < 0 || op.Col >= cols {
			return applied, fmt.Errorf("%w: cells[%d] (%d,%d) outside %dx%d",
				ErrBadRequest, i, op.Row, op.Col, rows, cols)
		}
		if op.Delete {
			h.upd.Delete(op.Row, op.Col)
		} else {
			h.upd.Set(op.Row, op.Col, op.Val)
		}
		applied++
	}
	return applied, nil
}

// InfoResponse is GET /v1/info: the SIMD dispatch report — which
// instruction-set tier serves each kernel on this host and under what cap.
// It is the record that makes the daemon's numbers attributable to the
// host ISA.
type InfoResponse struct {
	Level    string            `json:"level"`    // dispatched tier (cap applied)
	Detected string            `json:"detected"` // hardware tier, ignoring the cap
	Width    int               `json:"width"`    // float64 lanes of the widest dispatched kernel
	Enabled  bool              `json:"enabled"`
	Features []string          `json:"features,omitempty"`
	Kernels  []simd.KernelInfo `json:"kernels"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	resp := InfoResponse{
		Level:    simd.Level(),
		Detected: simd.DetectedLevel(),
		Width:    simd.Width(),
		Enabled:  simd.Enabled(),
		Features: simd.Features(),
		Kernels:  simd.Table(),
	}
	writeEnvelope(w, resp, nil)
}

// StatsResponse is GET /v1/stats: per-matrix batching plus totals, and the
// execution engine's dispatch counters — where hot_handoffs
// against parked_wakes + caller_claims says whether this daemon's
// dispatches find the workers polling or asleep.
type StatsResponse struct {
	Matrices []Info           `json:"matrices"`
	Totals   CoalescerStats   `json:"totals"`
	Engine   exec.EngineStats `json:"engine"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.List()
	var tot CoalescerStats
	for _, in := range infos {
		tot.Requests += in.Batching.Requests
		tot.Batches += in.Batching.Batches
		tot.Coalesced += in.Batching.Coalesced
	}
	if tot.Batches > 0 {
		tot.MeanBatch = float64(tot.Requests) / float64(tot.Batches)
	}
	writeEnvelope(w, StatsResponse{Matrices: infos, Totals: tot, Engine: exec.Stats()}, nil)
}
