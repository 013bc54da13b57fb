package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/update"
)

// envelope is the daemon's uniform response shape, typed by its payload.
type envelope[T any] struct {
	OK    bool `json:"ok"`
	Data  T    `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// okPrefix opens every successful multiply response; together with the
// comma count (rows+1: one after "ok", rows-1 inside y, one before
// "batch") it checks ok:true and the result length without decoding a
// megabyte of floats on every request, so the client does not become the
// bottleneck.
var okPrefix = []byte(`{"ok":true,"data":{"y":[`)

// wire is one client's connection to a server: its own keep-alive
// connection and response buffer.
type wire struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newWire(base string) *wire {
	return &wire{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

// do sends one request under the per-request deadline, which turns a hang
// into a counted failure instead of a stuck run. The returned body is the
// wire's buffer, valid until the next call; lat runs from the request
// write to the last response byte.
func (w *wire) do(method, path string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	r, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer r.Body.Close()
	w.buf.Reset()
	_, err = w.buf.ReadFrom(r.Body)
	return r.StatusCode, w.buf.Bytes(), time.Since(t0), err
}

func (w *wire) close() { w.hc.CloseIdleConnections() }

// served is everything the clients of one served run share: the inputs,
// pre-encoded request bodies (encoding x is the client's work, not the
// system's), the upload body, and serve-update's mirror.
type served struct {
	in     *inputs
	bodies [][][]byte // [client][slot] JSON MultiplyRequest
	upload []byte     // JSON UploadSpec
	mirror *mirror    // nil unless the workload is updatable
	tr     *tracer    // nil: tracing off
	// afterCells, if set, runs after each acknowledged cell batch; the
	// traced run samples the overlay's counters there.
	afterCells func()
}

func newServed(w workload, in *inputs, seed int64, clients int) (*served, error) {
	s := &served{in: in}
	for c := range in.xs {
		var bs [][]byte
		for _, x := range in.xs[c] {
			b, err := json.Marshal(serve.MultiplyRequest{X: x})
			if err != nil {
				return nil, err
			}
			bs = append(bs, b)
		}
		s.bodies = append(s.bodies, bs)
	}
	spec := serve.UploadSpec{Name: w.Name, Updatable: w.Updatable}
	if w.MatrixMarket {
		var mm bytes.Buffer
		if err := matrix.WriteMatrixMarket(&mm, in.m); err != nil {
			return nil, err
		}
		spec.MatrixMarket = mm.String()
	} else {
		p := w.Params
		p.Seed = seed
		spec.Generator = &p
	}
	var err error
	if s.upload, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	if w.Updatable {
		s.mirror = newMirror(in.m, seed, clients)
	}
	return s, nil
}

// host uploads the matrix and checks that the daemon hosts the matrix the
// client generated (same structural fingerprint).
func (s *served) host(wr *wire) (serve.Info, error) {
	status, body, _, err := wr.do(http.MethodPost, "/v1/matrices", s.upload)
	if err != nil {
		return serve.Info{}, fmt.Errorf("upload: %w", err)
	}
	var env envelope[serve.UploadResponse]
	if err := json.Unmarshal(body, &env); err != nil || !env.OK || status/100 != 2 {
		return serve.Info{}, fmt.Errorf("upload: status %d: %.200s", status, body)
	}
	if want := fmt.Sprintf("%016x", s.in.m.Fingerprint()); env.Data.Info.Fingerprint != want {
		return serve.Info{}, fmt.Errorf("upload: daemon hosts %s, client generated %s", env.Data.Info.Fingerprint, want)
	}
	return env.Data.Info, nil
}

// multiply sends slot's vector of client c as operation opID (0: not part
// of a loop). Every response is checked for
// status, ok:true and length; verify also decodes y and compares it with
// ref (nil: the caller cannot know the exact result, length only).
func (s *served) multiply(wr *wire, fp string, opID, c, slot int, verify bool, ref []float64) opResult {
	id := s.tr.begin("http.request", 0, opID)
	status, body, lat, err := wr.do(http.MethodPost, "/v1/matrices/"+fp+"/multiply", s.bodies[c][slot])
	s.tr.end(id)
	r := opResult{multiply: true, lat: lat}
	if err != nil || status != http.StatusOK || !bytes.HasPrefix(body, okPrefix) ||
		bytes.Count(body, []byte{','}) != s.in.m.Rows+1 {
		return r
	}
	if !verify {
		r.ok = true
		return r
	}
	var env envelope[serve.MultiplyResponse]
	if err := json.Unmarshal(body, &env); err != nil || !env.OK {
		return r
	}
	r.ok = len(env.Data.Y) == s.in.m.Rows && (ref == nil || matches(env.Data.Y, ref))
	return r
}

// cells posts client c's next batch of cell operations and, once the
// daemon has acknowledged it, applies the batch to the mirror.
func (s *served) cells(wr *wire, fp string, opID, c int) opResult {
	ops := s.mirror.nextBatch(c)
	body, err := json.Marshal(ops)
	if err != nil {
		return opResult{}
	}
	id := s.tr.begin("http.cells", 0, opID)
	status, resp, lat, err := wr.do(http.MethodPost, "/v1/matrices/"+fp+"/cells", body)
	s.tr.end(id)
	r := opResult{lat: lat}
	var env envelope[struct {
		Applied int `json:"applied"`
	}]
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &env) != nil || !env.OK || env.Data.Applied != len(ops) {
		return r
	}
	s.mirror.apply(c, ops)
	if s.afterCells != nil {
		s.afterCells()
	}
	r.ok = true
	return r
}

// op returns the closed loop's operation against the matrix hosted as fp:
// a multiply on the client's next vector, or for an updatable workload one
// cell batch followed by multipliesPerPost multiplies. While other clients
// write, a multiply's exact result is not knowable, so updatable multiplies
// are checked for status and length here and exactly at the barrier.
func (s *served) op(wires []*wire, fp string) opFunc {
	return func(c, seq int, verify bool) opResult {
		slot, opID := seq%xPoolPerClient, seq*len(wires)+c+1
		if s.mirror == nil {
			return s.multiply(wires[c], fp, opID, c, slot, verify, s.in.refs[c][slot])
		}
		if seq%(1+multipliesPerPost) == 0 {
			return s.cells(wires[c], fp, opID, c)
		}
		return s.multiply(wires[c], fp, opID, c, slot, verify, nil)
	}
}

// barrier returns serve-update's window-barrier check: with every client
// quiescent and every write acknowledged, one multiply must equal the
// mirror's product. Other workloads need none.
func (s *served) barrier(wr *wire, fp string) func() (attempted, failed int) {
	if s.mirror == nil {
		return nil
	}
	return func() (int, int) {
		if r := s.multiply(wr, fp, 0, 0, 0, true, s.mirror.product(s.in.xs[0][0])); !r.ok {
			return 1, 1
		}
		return 1, 0
	}
}

// servedTarget is one cold-set-up daemon hosting the workload's matrix.
type servedTarget struct {
	d    *daemon
	info serve.Info
}

func (t *servedTarget) stop() {
	if t != nil {
		t.d.stop()
	}
}

// servedSetup is one cold served set-up as a user sees it: daemon exec
// with an empty journal -> "listening on" -> upload -> first verified y.
func (s *served) servedSetup(e *env) (*servedTarget, time.Duration, error) {
	root := s.tr.begin("setup.served", 0, 0)
	defer s.tr.end(root)
	t0 := time.Now()
	id := s.tr.begin("serve.daemon_start", root, 0)
	d, err := e.startDaemon()
	s.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	wr := newWire(d.base)
	defer wr.close()
	id = s.tr.begin("serve.upload", root, 0)
	info, err := s.host(wr)
	s.tr.end(id)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	r := s.multiply(wr, info.Fingerprint, 0, 0, 0, true, s.in.refs[0][0])
	el := time.Since(t0)
	if !r.ok {
		d.stop()
		return nil, 0, fmt.Errorf("first multiply failed or differs from the CSR reference")
	}
	return &servedTarget{d: d, info: info}, el, nil
}

// runServed is the untraced run of a served workload: C closed-loop
// clients against a real spmv-serve child over loopback HTTP.
func runServed(e *env, w workload) (*runResult, error) {
	in, err := makeInputs(w, e.seed, e.clients, nil, 0)
	if err != nil {
		return nil, err
	}
	s, err := newServed(w, in, e.seed, e.clients)
	if err != nil {
		return nil, err
	}
	if err := e.buildDaemon(); err != nil {
		return nil, err
	}
	ref := newHostRef(in.m, in.xs[0][0], e.clients)
	setupRef := []float64{ref.rate()}
	t, setups, err := coldSetups(func() (*servedTarget, time.Duration, error) { return s.servedSetup(e) }, (*servedTarget).stop)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer t.stop()
	setupRef = append(setupRef, ref.rate())

	wires := make([]*wire, e.clients)
	for c := range wires {
		wires[c] = newWire(t.d.base)
		defer wires[c].close()
	}
	fp := t.info.Fingerprint
	op, barrier := s.op(wires, fp), s.barrier(wires[0], fp)
	ls := newLoopState(e.clients)
	ls.ref = ref
	warm := ls.closedLoop(warmWindows, e.window(), 1, op, barrier)
	timed := ls.closedLoop(e.timedWindows(), e.window(), verifyEvery, op, barrier)

	res := newRunResult(e, w, in, t.info.Format, setups, setupRef, warm, timed)
	res.Info["serve.peak_rss_mb"] = t.d.peakRSSMB()
	if st, err := stats(wires[0]); err == nil {
		res.Info["serve.mean_batch"] = st.Totals.MeanBatch
	}
	if s.mirror != nil {
		// The child's compaction counter is not on the wire; acknowledged
		// cell operations over the daemon's trigger bound it from outside.
		floor, ratio := update.CompactionThreshold() // the child runs the same defaults
		trigger := max(float64(floor), ratio*float64(in.m.NNZ()))
		res.Info["update.compactions_expected"] = float64(s.mirror.applied()) / trigger
		if !e.smoke && res.Info["update.compactions_expected"] < 3 {
			return nil, fmt.Errorf("%s: only %d cell operations acknowledged, fewer than 3 compaction triggers of %.0f: the run is invalid",
				w.Name, s.mirror.applied(), trigger)
		}
	}
	return res, nil
}

// stats reads GET /v1/stats.
func stats(wr *wire) (serve.StatsResponse, error) {
	status, body, _, err := wr.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return serve.StatsResponse{}, err
	}
	var env envelope[serve.StatsResponse]
	if err := json.Unmarshal(body, &env); err != nil || !env.OK {
		return serve.StatsResponse{}, fmt.Errorf("stats: status %d: %.200s", status, body)
	}
	return env.Data, nil
}

// mirror is the client-side truth of an updatable workload: the generated
// matrix plus, per client, the final value of every cell that client has
// written (0 for a deleted cell). Clients own disjoint rows (row mod C), so
// each touches only its own overlay and rng; product may only run with all
// of them quiescent.
type mirror struct {
	m       *matrix.CSR
	overlay []map[[2]int32]float64
	rngs    []*rand.Rand
	acked   []int // cell operations the daemon has acknowledged, per client
}

func newMirror(m *matrix.CSR, seed int64, clients int) *mirror {
	mi := &mirror{m: m, acked: make([]int, clients)}
	for c := 0; c < clients; c++ {
		mi.overlay = append(mi.overlay, make(map[[2]int32]float64))
		mi.rngs = append(mi.rngs, rand.New(rand.NewSource(seed*104729+int64(c))))
	}
	return mi
}

// nextBatch draws client c's next cellsPerPost operations: sets of a
// random cell of one of its rows, and 1 in deleteEvery a delete of one of
// that row's generated nonzeros, so deletes change the product.
func (mi *mirror) nextBatch(c int) []serve.CellOp {
	rng, clients := mi.rngs[c], len(mi.rngs)
	ops := make([]serve.CellOp, 0, cellsPerPost)
	for i := 0; i < cellsPerPost; i++ {
		row := c + clients*rng.Intn((mi.m.Rows-c+clients-1)/clients)
		cols, _ := mi.m.Row(row)
		if i%deleteEvery == deleteEvery-1 && len(cols) > 0 {
			ops = append(ops, serve.CellOp{Row: row, Col: int(cols[rng.Intn(len(cols))]), Delete: true})
			continue
		}
		ops = append(ops, serve.CellOp{Row: row, Col: rng.Intn(mi.m.Cols), Val: rng.Float64()*2 - 1})
	}
	return ops
}

func (mi *mirror) apply(c int, ops []serve.CellOp) {
	mi.acked[c] += len(ops)
	for _, op := range ops {
		v := op.Val
		if op.Delete {
			v = 0
		}
		mi.overlay[c][[2]int32{int32(op.Row), int32(op.Col)}] = v
	}
}

// applied counts the cell operations acknowledged so far.
func (mi *mirror) applied() int {
	n := 0
	for _, a := range mi.acked {
		n += a
	}
	return n
}

// baseAt returns the generated matrix's value at (r, c), 0 if absent.
func (mi *mirror) baseAt(r, c int32) float64 {
	cols, vals := mi.m.Row(int(r))
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == c {
		return vals[lo]
	}
	return 0
}

// product computes the mirror's y = A*x: the reference CSR kernel on the
// generated matrix, corrected by every written cell.
func (mi *mirror) product(x []float64) []float64 {
	y := make([]float64, mi.m.Rows)
	mi.m.SpMV(x, y)
	for _, o := range mi.overlay {
		for cell, v := range o {
			y[cell[0]] += (v - mi.baseAt(cell[0], cell[1])) * x[cell[1]]
		}
	}
	return y
}
