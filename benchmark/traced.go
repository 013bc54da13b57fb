package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/simd"
)

// The traced run produces the per-layer numbers purely from outside: it
// times calls into each layer's public functions from the benchmark's own
// files. Its --seconds splits into an untraced loop (a fifth), the same
// loop traced (a fifth), a loop over the layers below the entry point (a
// fifth: the direct kernel for a library workload, the replayed handler
// stages for a served one), and time-boxed microbenchmarks of single
// layers. Spans inside the program are a later change's job and will
// replace the reconstructed children recorded here.

// microBudget is the time box of one single-layer microbenchmark.
func (e *env) microBudget() time.Duration { return e.phase() / 5 }

func runTraced(e *env, w workload) (*layerResult, error) {
	l := newLayerResult()
	tr := newTracer()
	clients := e.clients
	if w.Kind == kindLib {
		clients = 1
	}

	// Set-up, replayed in process for every workload: what a cold start
	// spends in each layer before the first y.
	setup := tr.begin("setup", 0, 0)
	in, err := makeInputs(w, e.seed, clients, tr, setup)
	if err != nil {
		return nil, err
	}
	l.set("gen.generate_s", in.genS)
	if w.MatrixMarket {
		var mm bytes.Buffer
		if err := matrix.WriteMatrixMarket(&mm, in.m); err != nil {
			return nil, err
		}
		id := tr.begin("matrix.mm_parse", setup, 0)
		t0 := time.Now()
		_, err := matrix.ReadMatrixMarket(bytes.NewReader(mm.Bytes()))
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: re-read MatrixMarket: %w", w.Name, err)
		}
		l.set("matrix.mm_parse_mb_per_s", float64(mm.Len())/1e6/d.Seconds())
	}
	t, modelGFLOPS, err := tracedLibSetup(e, in, tr, setup, l)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer t.close()
	tr.end(setup)
	l.Format = t.f.Chosen()
	l.Attempted++ // the set-up's verified first multiply

	dispatch := measureKernelLayers(e, in, t, modelGFLOPS, l)

	h := describeHost(e.root, e.seed)
	rf := measureRoof(h.LLCBytes, h.MemBytes, e.clients, 3, e.seed)
	l.set("roofline.triad_gbps", rf.TriadGBps)
	l.set("roofline.triad_par_gbps", rf.TriadParGBps)
	l.set("roofline.gather_ns", rf.GatherNs)
	l.set("roofline.pct_roof", 100*l.Metrics["formats.kernel_gbps"].Value/rf.TriadGBps)
	l.notef("roofline.pct_roof = formats.kernel_gbps (computed bytes: Format.Bytes()+8*(rows+cols), not measured traffic) over the one-thread triad; triad arrays %d B each (%.2fx LLC), pointer-chase arena %d B, LLC %d B (%s); the matrix holds %d B (%.2fx LLC)",
		rf.ArrayBytes, float64(rf.ArrayBytes)/float64(h.LLCBytes), rf.ChaseBytes, h.LLCBytes, h.LLCSource, t.f.Bytes(), float64(t.f.Bytes())/float64(h.LLCBytes))

	before := exec.Stats()
	t0 := time.Now()
	if w.Kind == kindLib {
		err = tracedLibLoops(e, in, t, tr, l, dispatch)
	} else {
		err = tracedServedLoops(e, w, in, tr, l)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	after := exec.Stats()
	var busy time.Duration
	for i, s := range after.Shards {
		busy += s.Busy
		if i < len(before.Shards) {
			busy -= before.Shards[i].Busy
		}
	}
	l.set("exec.busy_ratio", busy.Seconds()/time.Since(t0).Seconds())
	l.set("exec.spawn_fallbacks", float64(after.SpawnFallbacks-before.SpawnFallbacks))

	l.spans = tr.since(0)
	l.set("trace.spans", float64(len(l.spans)))
	return l, nil
}

// tracedLibSetup is libSetup with a span per layer. selector.auto is one
// call from outside; the feature extraction and format build it contains
// are timed by calling those layers directly and recorded as its
// reconstructed children.
func tracedLibSetup(e *env, in *inputs, tr *tracer, parent int, l *layerResult) (t *libTarget, modelGFLOPS float64, err error) {
	dir, err := e.tempDir("cache")
	if err != nil {
		return nil, 0, err
	}
	id := tr.begin("session.open", parent, 0)
	t0 := time.Now()
	sess, err := spmv.NewSession(spmv.SessionOptions{CacheDir: dir})
	l.set("session.open_ms", ms(time.Since(t0)))
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	t = &libTarget{sess: sess}

	auto := tr.begin("selector.auto", parent, 0)
	t0 = time.Now()
	t.f, err = sess.Auto(in.m, spmv.AutoOptions{})
	l.set("selector.auto_model_ms", ms(time.Since(t0)))
	tr.end(auto)
	if err != nil {
		t.close()
		return nil, 0, err
	}

	id = tr.begin("facade.first_multiply", parent, 0)
	y := make([]float64, in.m.Rows)
	err = spmv.Multiply(t.f, y, in.xs[0][0])
	tr.end(id)
	if err != nil || !matches(y, in.refs[0][0]) {
		t.close()
		return nil, 0, fmt.Errorf("first multiply failed or differs from the CSR reference (%v)", err)
	}

	t0 = time.Now()
	fv := core.Extract(in.m)
	extract := time.Since(t0)
	l.set("core.extract_ms", ms(extract))
	b, ok := formats.Lookup(t.f.Chosen())
	if !ok {
		t.close()
		return nil, 0, fmt.Errorf("chosen format %q is not in the registry", t.f.Chosen())
	}
	t0 = time.Now()
	if _, err := b.Build(in.m); err != nil {
		t.close()
		return nil, 0, err
	}
	build := time.Since(t0)
	l.set("formats.build_ms", ms(build))
	tr.reconstruct("core.extract", auto, 0, extract)
	tr.reconstruct("formats.build", auto, extract, build)

	// The same session again: the decision cache answers, the format is
	// still built. One miss and one hit make the ratio an exact count.
	t0 = time.Now()
	if _, err := sess.Auto(in.m, spmv.AutoOptions{}); err != nil {
		t.close()
		return nil, 0, err
	}
	l.set("cache.warm_auto_ms", ms(time.Since(t0)))
	if hits, misses := sess.Cache().Stats(); hits+misses > 0 {
		l.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	}

	// What the micro-probe would add, had the defaults asked for it.
	probes := selector.ProbeCount()
	t0 = time.Now()
	if _, err := sess.Auto(in.m, spmv.AutoOptions{Probe: true, NoCache: true}); err != nil {
		t.close()
		return nil, 0, err
	}
	l.set("selector.auto_probe_ms", ms(time.Since(t0)))
	l.set("selector.probes", float64(selector.ProbeCount()-probes))

	return t, device.HostSpec().Estimate(fv, t.f.Chosen()).GFLOPS, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measureKernelLayers times the chosen format's kernels and the execution
// engine alone, one caller, nothing else running. It returns the median
// empty engine round trip (0 when the kernel takes the serial path), which
// the library loops place inside their kernel spans.
func measureKernelLayers(e *env, in *inputs, t *libTarget, modelGFLOPS float64, l *layerResult) (dispatch time.Duration) {
	f := t.f.Unwrap()
	x, y := in.xs[0][0], make([]float64, in.m.Rows)
	budget := e.microBudget()
	nnz := f.NNZ()

	serial := sample(budget, 3, func() { f.SpMV(x, y) })
	sMs := p50(serial)
	bytesMoved := float64(f.Bytes() + 8*int64(f.Rows()+f.Cols()))
	l.set("formats.kernel_ms_p50", sMs, len(serial))
	l.set("formats.kernel_gflops", flops(nnz, 1)/1e9/(sMs/1e3))
	l.set("formats.kernel_gbps", bytesMoved/1e9/(sMs/1e3))
	l.set("formats.bytes_per_nnz", float64(f.Bytes())/float64(nnz))

	prev := simd.SetLevel("scalar") // nothing is in flight: one caller
	scalar := sample(budget, 3, func() { f.SpMV(x, y) })
	simd.SetLevel(prev)
	l.set("simd.speedup_vs_scalar", p50(scalar)/sMs)

	workers := exec.MaxWorkers()
	par := sample(budget, 3, func() { f.SpMVParallel(x, y, workers) })
	pMs := p50(par)
	l.set("exec.parallel_speedup", sMs/pMs)
	achieved := flops(nnz, 1) / 1e9 / (pMs / 1e3)
	l.set("device.model_err_pct", 100*math.Abs(modelGFLOPS-achieved)/achieved)
	l.notef("device model predicts %.3f GFLOP/s for %s here; %d workers achieve %.3f", modelGFLOPS, t.f.Chosen(), workers, achieved)

	const k = 8
	xk, yk := make([]float64, f.Cols()*k), make([]float64, f.Rows()*k)
	for c := 0; c < f.Cols(); c++ {
		for v := 0; v < k; v++ {
			xk[c*k+v] = in.xs[0][v%xPoolPerClient][c]
		}
	}
	many := sample(budget, 3, func() { f.MultiplyMany(yk, xk, k) })
	l.set("formats.k8_per_vec_speedup", k*pMs/p50(many))

	l.set("formats.allocs_per_op", allocsPerCall(20, func() { spmv.Multiply(t.f, y, x) }))

	if w := exec.Workers(nnz, workers); w > 1 {
		noop := func(int) {}
		rt := sample(budget, 1000, func() {
			g := exec.Acquire(w)
			g.Run(w, noop)
			g.Release()
		})
		l.set("exec.dispatch_us_p50", 1e3*p50(rt), len(rt))
		dispatch = time.Duration(p50(rt) * 1e6)
	}
	return dispatch
}

// tracedLibLoops runs a library workload's three phases and derives the
// shares of one facade call: facade.multiply > formats.kernel >
// exec.dispatch, the inner two reconstructed from direct calls. The third
// phase pairs every traced facade call with a direct call of the layer
// below it (SpMVParallel on the concrete format), so both see the same
// host conditions: this guest's memory system switches between two speeds
// every few dozen operations, and a kernel timed in a later phase would
// book that difference to the facade.
func tracedLibLoops(e *env, in *inputs, t *libTarget, tr *tracer, l *layerResult, dispatch time.Duration) error {
	ls := newLoopState(1)
	ls.closedLoop(1, e.phase()/2, 1, libOp(t, in, nil), nil) // warm
	plain := ls.closedLoop(1, e.phase(), verifyEvery, libOp(t, in, nil), nil)
	traced := ls.closedLoop(1, e.phase(), verifyEvery, libOp(t, in, tr), nil)
	setOverhead(l, plain, traced)

	mark := tr.count()
	facade := libOp(t, in, tr)
	f, workers := t.f.Unwrap(), exec.MaxWorkers()
	y := make([]float64, in.m.Rows)
	var directMs []float64
	paired := ls.closedLoop(1, e.phase(), verifyEvery, func(c, seq int, verify bool) opResult {
		r := facade(c, seq, verify)
		t0 := time.Now()
		f.SpMVParallel(in.xs[c][seq%xPoolPerClient], y, workers)
		directMs = append(directMs, ms(time.Since(t0)))
		return r
	}, nil)
	for _, st := range []loopStats{plain, traced, paired} {
		l.Attempted += st.Attempted
		l.Failed += st.Failed
	}

	direct := time.Duration(p50(directMs) * 1e6)
	for _, s := range tr.since(mark) {
		k := tr.reconstruct("formats.kernel", s.ID, 0, direct)
		if dispatch > 0 {
			tr.reconstruct("exec.dispatch", k, 0, dispatch)
		}
	}
	self := selfMsByName(tr.since(mark))
	l.setShares(map[string]float64{
		"facade": p50(self["facade.multiply"]),
		"kernel": p50(self["formats.kernel"]),
		"exec":   p50(self["exec.dispatch"]),
	})
	return nil
}

// setOverhead reports what tracing cost: the traced loop's rate against
// the untraced loop's, same operation, same run.
func setOverhead(l *layerResult, plain, traced loopStats) {
	if p := plain.rate(opsOf); p > 0 {
		l.set("trace.overhead_pct", 100*(p-traced.rate(opsOf))/p)
	}
}

// overlaySampler collects the update overlay's counters after each
// acknowledged cell batch: compaction and freeze durations are only
// exposed as "last", so each completed compaction is caught as it shows.
type overlaySampler struct {
	mu        sync.Mutex
	u         *spmv.Updatable
	seen      uint64
	compactMs []float64
	freezeMs  float64
}

func (o *overlaySampler) sample() {
	st := o.u.Stats()
	o.mu.Lock()
	defer o.mu.Unlock()
	if st.Compactions > o.seen {
		o.seen = st.Compactions
		o.compactMs = append(o.compactMs, float64(st.LastCompactNs)/1e6)
		o.freezeMs = max(o.freezeMs, float64(st.LastFreezeNs)/1e6)
	}
}

// tracedServedLoops measures a served workload layer by layer. The wire
// numbers a user pays (upload, lone-request latency, the daemon's memory)
// come from a real child; the per-stage numbers come from an in-process
// server, where the registry and coalescer can be reached: http.request
// spans over real loopback, then the same payloads replayed through
// serve.decode -> serve.registry_get -> serve.coalesce -> serve.encode.
func tracedServedLoops(e *env, w workload, in *inputs, tr *tracer, l *layerResult) error {
	s, err := newServed(w, in, e.seed, e.clients)
	if err != nil {
		return err
	}
	if err := e.buildDaemon(); err != nil {
		return err
	}

	if err := measureChild(e, s, in, tr, l); err != nil {
		return err
	}

	// The in-process server, configured as the daemon configures itself.
	cacheDir, err := e.tempDir("server-cache")
	if err != nil {
		return err
	}
	cfg := serve.DefaultConfig()
	cfg.Addr, cfg.CacheDir = "127.0.0.1:0", cacheDir
	srv, err := serve.NewServer(cfg, nil)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Shutdown(context.Background()) // bounded by the config's drain timeout
		<-served
	}()

	wires := make([]*wire, e.clients)
	for c := range wires {
		wires[c] = newWire("http://" + srv.Addr())
		defer wires[c].close()
	}
	info, err := s.host(wires[0])
	if err != nil {
		return err
	}
	l.Format = info.Format // as the untraced run reports it: the choice at upload
	fp := info.Fingerprint
	hosted, err := srv.Registry().Get(fp)
	if err != nil {
		return err
	}
	var overlay *overlaySampler
	if u := hosted.Updatable(); u != nil {
		overlay = &overlaySampler{u: u}
		s.afterCells = overlay.sample
	}

	co := hosted.Coalescer()
	barrier := s.barrier(wires[0], fp)
	ls := newLoopState(e.clients)
	warm := ls.closedLoop(1, e.phase()/2, 1, s.op(wires, fp), barrier)
	coBefore := co.Stats()
	plain := ls.closedLoop(1, e.phase(), verifyEvery, s.op(wires, fp), barrier)
	mark := tr.count()
	s.tr = tr
	traced := ls.closedLoop(1, e.phase(), verifyEvery, s.op(wires, fp), barrier)
	s.tr = nil
	coAfter := co.Stats()
	for _, st := range []loopStats{warm, plain, traced} {
		l.Attempted += st.Attempted
		l.Failed += st.Failed
	}
	setOverhead(l, plain, traced)
	l.set("serve.lat_ms_p99", percentile(sortedCopy(plain.allLatMs()), 0.99), len(plain.allLatMs()))
	if b := coAfter.Batches - coBefore.Batches; b > 0 {
		l.set("serve.mean_batch", float64(coAfter.Requests-coBefore.Requests)/float64(b))
		l.set("serve.flush_window_ratio", float64(coAfter.FlushWindow-coBefore.FlushWindow)/float64(b))
	}

	// Replay: the handler's stages on the workload's own payloads, under
	// the same C concurrent callers the coalescer saw over the wire.
	batches := replayStages(e, s, srv.Registry(), fp, tr, l)

	// serve.coalesce contains the kernel call it waited for. Time that
	// call at each batch size the coalescer actually formed and place it
	// inside the span.
	kernelAt := map[int]time.Duration{}
	surface, err := serveSurface(hosted, info.Format, in.m)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if _, ok := kernelAt[b.batch]; !ok {
			kernelAt[b.batch] = kernelAtBatch(e, surface, in, b.batch)
		}
		tr.reconstruct("formats.kernel", b.span, 0, kernelAt[b.batch])
	}

	spans := tr.since(mark)
	self := selfMsByName(spans)
	total := map[string][]float64{}
	for _, sp := range spans {
		total[sp.Name] = append(total[sp.Name], float64(sp.End-sp.Start)/1e6)
	}
	l.set("serve.decode_ms_p50", p50(self["serve.decode"]), len(self["serve.decode"]))
	l.set("serve.encode_ms_p50", p50(self["serve.encode"]), len(self["serve.encode"]))
	l.set("serve.registry_get_us_p50", 1e3*p50(self["serve.registry_get"]), len(self["serve.registry_get"]))
	l.set("serve.coalesce_ms_p50", p50(total["serve.coalesce"]), len(total["serve.coalesce"]))
	l.set("serve.coalesce_self_ms_p50", p50(self["serve.coalesce"]), len(self["serve.coalesce"]))
	l.set("update.cells_ms_p50", p50(total["http.cells"]), len(total["http.cells"]))
	// What the wire adds is not observable from outside the handler: it is
	// the loopback request less the replayed stages. Reconstructed.
	stages := p50(total["serve.decode"]) + p50(total["serve.registry_get"]) + p50(total["serve.coalesce"]) + p50(total["serve.encode"])
	httpSelf := max(0, p50(total["http.request"])-stages)
	l.set("serve.http_self_ms_p50", httpSelf, len(total["http.request"]))
	l.notef("serve.http_self_ms_p50 and the formats.kernel child of serve.coalesce are reconstructed, not observed")
	l.setShares(map[string]float64{
		"codec":    p50(self["serve.decode"]) + p50(self["serve.encode"]),
		"coalesce": p50(self["serve.registry_get"]) + p50(self["serve.coalesce"]),
		"kernel":   p50(self["formats.kernel"]),
		"http":     httpSelf,
	})

	if overlay != nil {
		if err := measureOverlay(e, s, hosted, overlay, in, l); err != nil {
			return err
		}
		a, f := barrier() // the direct writes above reached the mirror too
		l.Attempted += a
		l.Failed += f
	}
	return nil
}

// measureChild takes the numbers a user pays over the wire from a real
// daemon child: one cold set-up with spans, then one connection alone.
func measureChild(e *env, s *served, in *inputs, tr *tracer, l *layerResult) error {
	mark := tr.count()
	s.tr = tr
	child, _, err := s.servedSetup(e)
	s.tr = nil
	if err != nil {
		return err
	}
	defer child.stop()
	for _, sp := range tr.since(mark) {
		if sp.Name == "serve.upload" {
			l.set("serve.upload_s", float64(sp.End-sp.Start)/1e9)
		}
	}
	wr := newWire(child.d.base)
	defer wr.close()
	lone := newLoopState(1).closedLoop(1, e.phase()/2, verifyEvery, func(c, seq int, verify bool) opResult {
		slot := seq % xPoolPerClient
		ref := in.refs[0][slot]
		if s.mirror != nil {
			ref = nil // nobody writes, but the mirror is checked at barriers only
		}
		return s.multiply(wr, child.info.Fingerprint, 0, 0, slot, verify, ref)
	}, nil)
	l.set("serve.lone_lat_ms_p50", p50(lone.allLatMs()), len(lone.allLatMs()))
	l.set("serve.peak_rss_mb", child.d.peakRSSMB())
	l.Attempted += 1 + lone.Attempted
	l.Failed += lone.Failed
	return nil
}

// serveSurface is what the hosted matrix's multiplies dispatch on: the
// overlay itself, or the format selection chose, rebuilt by name (the
// registry does not hand out its instance; Auto only delegates to it).
func serveSurface(h *serve.Hosted, format string, m *matrix.CSR) (formats.Format, error) {
	if u := h.Updatable(); u != nil {
		return u, nil
	}
	b, ok := formats.Lookup(format)
	if !ok {
		return nil, fmt.Errorf("hosted format %q is not in the registry", format)
	}
	return b.Build(m)
}

type replayed struct{ span, batch int }

// replayStages runs the multiply handler's stages in process under C
// callers for one phase, a span per stage, and returns each coalesce
// span with the batch size that served it.
func replayStages(e *env, s *served, reg *serve.Registry, fp string, tr *tracer, l *layerResult) []replayed {
	var (
		mu  sync.Mutex
		out []replayed
	)
	st := newLoopState(e.clients).closedLoop(1, e.phase(), verifyEvery, func(c, seq int, verify bool) opResult {
		slot, opID := seq%xPoolPerClient, seq*e.clients+c+1
		t0 := time.Now()
		root := tr.begin("serve.replay", 0, opID)
		defer tr.end(root)

		id := tr.begin("serve.decode", root, opID)
		var req serve.MultiplyRequest
		err := json.Unmarshal(s.bodies[c][slot], &req)
		tr.end(id)
		if err != nil {
			return opResult{multiply: true}
		}

		id = tr.begin("serve.registry_get", root, opID)
		h, err := reg.Get(fp)
		tr.end(id)
		if err != nil {
			return opResult{multiply: true}
		}

		co := tr.begin("serve.coalesce", root, opID)
		y, batch, err := h.Coalescer().Multiply(context.Background(), req.X)
		tr.end(co)
		if err != nil {
			return opResult{multiply: true}
		}

		id = tr.begin("serve.encode", root, opID)
		resp, err := json.Marshal(envelope[serve.MultiplyResponse]{OK: true, Data: serve.MultiplyResponse{Y: y, Batch: batch}})
		tr.end(id)

		mu.Lock()
		out = append(out, replayed{co, batch})
		if len(out) == 1 {
			l.set("serve.req_bytes", float64(len(s.bodies[c][slot])))
			l.set("serve.resp_bytes", float64(len(resp)))
		}
		mu.Unlock()
		ok := err == nil && (!verify || s.mirror != nil || matches(y, s.in.refs[c][slot]))
		return opResult{multiply: true, lat: time.Since(t0), ok: ok}
	}, nil)
	l.Attempted += st.Attempted
	l.Failed += st.Failed
	return out
}

// kernelAtBatch times the kernel call the coalescer issues for a batch of
// the given size: the parallel single-vector kernel for a lone request,
// the fused multi-vector kernel otherwise.
func kernelAtBatch(e *env, f formats.Format, in *inputs, batch int) time.Duration {
	workers := exec.MaxWorkers()
	if batch <= 1 {
		y := make([]float64, f.Rows())
		return time.Duration(p50(sample(e.microBudget(), 3, func() { f.SpMVParallel(in.xs[0][0], y, workers) })) * 1e6)
	}
	x, y := make([]float64, f.Cols()*batch), make([]float64, f.Rows()*batch)
	for i := range x {
		x[i] = in.xs[0][0][i/batch]
	}
	return time.Duration(p50(sample(e.microBudget(), 3, func() { f.MultiplyMany(y, x, batch) })) * 1e6)
}

// measureOverlay reads the update layer: the cost of one write, what the
// overlay adds to a multiply at its current fill, and the compactor's
// counters since the matrix was hosted.
func measureOverlay(e *env, s *served, hosted *serve.Hosted, o *overlaySampler, in *inputs, l *layerResult) error {
	u := hosted.Updatable()
	ops := s.mirror.nextBatch(0)
	for len(ops) < 2048 {
		ops = append(ops, s.mirror.nextBatch(0)...)
	}
	var setUs []float64
	for _, op := range ops {
		t0 := time.Now()
		if op.Delete {
			u.Delete(op.Row, op.Col)
		} else {
			u.Set(op.Row, op.Col, op.Val)
		}
		setUs = append(setUs, float64(time.Since(t0))/1e3)
	}
	s.mirror.apply(0, ops)
	o.sample()
	l.set("update.set_us_p50", p50(setUs), len(setUs))

	st := u.Stats()
	if st.BaseNNZ > 0 {
		l.set("update.overlay_fill_pct", 100*float64(st.FrozenLen+st.ActiveLen)/float64(st.BaseNNZ))
	}
	x, y, workers := in.xs[0][0], make([]float64, in.m.Rows), exec.MaxWorkers()
	base := u.Base()
	withOverlay := p50(sample(e.microBudget(), 3, func() { u.SpMVParallel(x, y, workers) }))
	alone := p50(sample(e.microBudget(), 3, func() { base.SpMVParallel(x, y, workers) }))
	l.set("update.multiply_overhead", withOverlay/alone)

	l.set("update.compactions", float64(st.Compactions))
	l.set("update.commit_parks", float64(st.CommitParks))
	l.set("update.compact_ms_p50", p50(o.compactMs), len(o.compactMs))
	l.set("update.freeze_ms_max", o.freezeMs)
	l.notef("base format after %d compactions: %s", st.Compactions, st.BaseFormat)
	if !e.smoke && st.Compactions < 3 {
		return fmt.Errorf("only %d background compactions finished: the run is invalid", st.Compactions)
	}
	return nil
}
