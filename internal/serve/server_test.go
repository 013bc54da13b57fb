package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/session"
)

// bootServer starts a server on a loopback ephemeral port and returns its
// base URL plus a shutdown func.
func bootServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(cfg, sess)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	return s, "http://" + s.Addr()
}

// call POSTs (or GETs when body is nil) and decodes the envelope.
func call(t *testing.T, method, url string, body any) (int, envelope) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: undecodable envelope: %v", method, url, err)
	}
	return resp.StatusCode, env
}

// remarshal re-decodes envelope data into a typed struct.
func remarshal(t *testing.T, data any, dst any) {
	t.Helper()
	b, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, dst); err != nil {
		t.Fatal(err)
	}
}

// The full happy path over real HTTP: health, upload, lookup, batched
// multiply, updatable cell set visible in the next multiply, typed 400 on
// a wrong-length vector, 404 on an unknown fingerprint, delete.
func TestServerEndToEnd(t *testing.T) {
	s, base := bootServer(t, DefaultConfig())
	defer s.Shutdown(context.Background())

	status, env := call(t, "GET", base+"/v1/healthz", nil)
	if status != 200 || !env.OK {
		t.Fatalf("healthz: %d %+v", status, env)
	}

	m := matrix.Random(200, 200, 0.03, 21)
	status, env = call(t, "POST", base+"/v1/matrices",
		UploadSpec{Name: "e2e", MatrixMarket: mmBody(t, m), Updatable: true})
	if status != 201 || !env.OK {
		t.Fatalf("upload: %d %+v", status, env)
	}
	var up UploadResponse
	remarshal(t, env.Data, &up)
	if !up.Created || up.Info.Fingerprint == "" || !up.Info.Updatable {
		t.Fatalf("upload response %+v", up)
	}
	fp := up.Info.Fingerprint

	// Idempotent re-upload: 200, created=false, same fingerprint.
	status, env = call(t, "POST", base+"/v1/matrices",
		UploadSpec{Name: "e2e", MatrixMarket: mmBody(t, m), Updatable: true})
	if status != 200 || !env.OK {
		t.Fatalf("re-upload: %d %+v", status, env)
	}

	x := make([]float64, 200)
	x[3] = 1
	status, env = call(t, "POST", base+"/v1/matrices/"+fp+"/multiply", MultiplyRequest{X: x})
	if status != 200 || !env.OK {
		t.Fatalf("multiply: %d %+v", status, env)
	}
	var mr MultiplyResponse
	remarshal(t, env.Data, &mr)
	if len(mr.Y) != 200 || mr.Batch < 1 {
		t.Fatalf("multiply response: len(y)=%d batch=%d", len(mr.Y), mr.Batch)
	}

	// Cell update, then the same multiply must see it.
	status, env = call(t, "POST", base+"/v1/matrices/"+fp+"/cells",
		[]CellOp{{Row: 0, Col: 3, Val: mr.Y[0] + 17}})
	if status != 200 || !env.OK {
		t.Fatalf("cells: %d %+v", status, env)
	}
	status, env = call(t, "POST", base+"/v1/matrices/"+fp+"/multiply", MultiplyRequest{X: x})
	if status != 200 {
		t.Fatalf("multiply after set: %d %+v", status, env)
	}
	var mr2 MultiplyResponse
	remarshal(t, env.Data, &mr2)
	if diff := mr2.Y[0] - mr.Y[0]; diff < 16.9 || diff > 17.1 {
		t.Fatalf("cell set not visible: before=%v after=%v", mr.Y[0], mr2.Y[0])
	}

	// Wrong-length vector: typed 400, dimension_mismatch code in the
	// envelope — never a leaked 500.
	status, env = call(t, "POST", base+"/v1/matrices/"+fp+"/multiply",
		MultiplyRequest{X: make([]float64, 7)})
	if status != 400 || env.OK || env.Error == nil || env.Error.Code != "dimension_mismatch" {
		t.Fatalf("short vector: %d %+v", status, env)
	}

	// Unknown fingerprint: typed 404.
	status, env = call(t, "POST", base+"/v1/matrices/0123456789abcdef/multiply", MultiplyRequest{X: x})
	if status != 404 || env.Error == nil || env.Error.Code != "not_found" {
		t.Fatalf("unknown fp: %d %+v", status, env)
	}

	// Malformed body: typed 400.
	req, _ := http.NewRequest("POST", base+"/v1/matrices", bytes.NewReader([]byte("{nope")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}

	// List and stats see the one matrix and its traffic.
	status, env = call(t, "GET", base+"/v1/stats", nil)
	if status != 200 {
		t.Fatalf("stats: %d", status)
	}
	var st StatsResponse
	remarshal(t, env.Data, &st)
	if len(st.Matrices) != 1 || st.Totals.Requests == 0 || len(st.Engine.Shards) == 0 {
		t.Fatalf("stats: %+v", st)
	}

	status, env = call(t, "DELETE", base+"/v1/matrices/"+fp, nil)
	if status != 200 || !env.OK {
		t.Fatalf("delete: %d %+v", status, env)
	}
	status, _ = call(t, "GET", base+"/v1/matrices/"+fp, nil)
	if status != 404 {
		t.Fatalf("get after delete: %d, want 404", status)
	}
}

// post sends a raw body and decodes the envelope. declared=false hides the
// length from the client so the body goes out chunked.
func post(t *testing.T, url string, body []byte, declared bool) (int, envelope) {
	t.Helper()
	var rd io.Reader = bytes.NewReader(body)
	if !declared {
		rd = io.MultiReader(rd)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("POST %s: status %d, undecodable envelope %q: %v", url, resp.StatusCode, raw, err)
	}
	return resp.StatusCode, env
}

// The multiply path's two typed refusals over real HTTP. A product with an
// infinite entry has no JSON form: it must answer 422 with the envelope,
// not 200 with an empty body. A body larger than any x for the hosted
// matrix could be must answer 413 — refused from Content-Length when the
// client declared one, from the bytes when it did not — not be read whole.
func TestServerMultiplyTypedRefusals(t *testing.T) {
	s, base := bootServer(t, DefaultConfig())
	defer s.Shutdown(context.Background())

	status, env := call(t, "POST", base+"/v1/matrices", UploadSpec{
		MatrixMarket: "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 100\n2 2 100\n"})
	if status != 201 {
		t.Fatalf("upload: %d %+v", status, env)
	}
	var up UploadResponse
	remarshal(t, env.Data, &up)
	url := base + "/v1/matrices/" + up.Info.Fingerprint + "/multiply"

	status, env = post(t, url, []byte(`{"x":[1e308,1]}`), true)
	if status != 422 || env.OK || env.Error == nil || env.Error.Code != "non_finite_result" {
		t.Fatalf("overflowing product: %d %+v, want 422 non_finite_result", status, env)
	}

	// Valid JSON, right-sized x, and a member that makes the body larger
	// than two columns can need.
	big := []byte(`{"x":[1,2],"pad":"` + strings.Repeat("a", 2*multiplyBytesPerCol+multiplyBodySlack) + `"}`)
	for _, declared := range []bool{true, false} {
		status, env = post(t, url, big, declared)
		if status != 413 || env.OK || env.Error == nil || env.Error.Code != "body_too_large" {
			t.Fatalf("oversized body (declared=%v): %d %+v, want 413 body_too_large", declared, status, env)
		}
	}

	// The matrix still answers, and the envelope carries a length.
	status, env = post(t, url, []byte(` {"x":[1,-2],"note":null} `), true)
	var mr MultiplyResponse
	remarshal(t, env.Data, &mr)
	if status != 200 || len(mr.Y) != 2 || mr.Y[0] != 100 || mr.Y[1] != -200 {
		t.Fatalf("multiply after refusals: %d %+v", status, env)
	}
}

// Every multiply response that got past reading its body says where its
// time went: Server-Timing names the stages it reached, in order, and their
// durations sum to no more than the handler's own wall time. A request that
// runs its own kernel call waits 0; one queued behind another's call waits
// until its own begins.
func TestServerTimingHeader(t *testing.T) {
	s, err := NewServer(DefaultConfig(), memSession(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	h, _, err := s.Registry().Upload(context.Background(), UploadSpec{
		MatrixMarket: "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 100\n2 2 100\n"})
	if err != nil {
		t.Fatal(err)
	}
	handler, url := s.routes(), "/v1/matrices/"+h.FP()+"/multiply"
	for _, c := range []struct {
		body   string
		status int
		stages int // how many of stageNames the response reached
	}{
		{`{"x":[1,2]}`, http.StatusOK, 4},
		{`{"x":[1e308,1]}`, http.StatusUnprocessableEntity, 4}, // the encode refuses an infinite y
		{`{"x":[1]}`, http.StatusBadRequest, 3},                // the coalescer refuses a short x
		{`{"x":[1,2,3]}`, http.StatusBadRequest, 1},            // the decode stops at the third entry
		{`{"x":[1,"2"]}`, http.StatusBadRequest, 1},
		{`{"x":[1,2],"pad":"` + strings.Repeat("a", 256) + `"}`, http.StatusRequestEntityTooLarge, 0},
	} {
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(c.body)))
		wall := time.Since(start)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d", c.body, rec.Code, c.status)
		}
		timing, present := rec.Result().Header["Server-Timing"]
		if c.stages == 0 {
			if present {
				t.Fatalf("%s: unread body timed as %q", c.body, timing)
			}
			continue
		}
		if len(timing) != 1 {
			t.Fatalf("%s: Server-Timing %q, want one value", c.body, timing)
		}
		stages := parseTiming(t, c.body, timing[0], c.stages)
		var sum time.Duration
		for _, d := range stages {
			sum += d
		}
		if sum > wall {
			t.Fatalf("%s: stages sum to %v, the handler took %v", c.body, sum, wall)
		}
		if c.stages > 1 && stages[1] != 0 {
			t.Fatalf("%s: Server-Timing %q: a request that ran its own call waited", c.body, timing[0])
		}
	}

	// A second request queued behind a held call waits at least as long as
	// the call is held after it queued.
	hf := holdFormat(naiveCSR(matrix.Random(2, 2, 1, 1)))
	co := NewCoalescer(context.Background(), hf, DefaultMaxBatch)
	first := send(co, context.Background(), []float64{1, 2})
	hf.started(t)
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		serveMultiply(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(`{"x":[1,2]}`)), co, &multiplyBufs{y: make([]float64, 2)})
		queued <- rec
	}()
	waitAdmitted(t, co, 2)
	const held = 2 * time.Millisecond
	time.Sleep(held)
	close(hf.release)
	receive(t, first)
	rec := <-queued
	if timing := rec.Result().Header.Get("Server-Timing"); rec.Code != http.StatusOK || parseTiming(t, "queued", timing, 4)[1] < held {
		t.Fatalf("queued request: status %d, Server-Timing %q, want a wait of at least %v", rec.Code, timing, held)
	}

	// Stamping is free and the header costs its value's string.
	var clock stageClock
	hdr := http.Header{}
	if allocs := testing.AllocsPerRun(100, func() {
		clock.start()
		for range stageNames {
			clock.stamp()
		}
		clock.header(hdr)
	}); allocs > 1 {
		t.Fatalf("the stage clock allocates %v objects per request, want at most 1", allocs)
	}
}

// Shutdown while requests are in flight: every admitted request receives
// a response and none hang. This is the SIGTERM drain contract the serve
// CI job asserts end to end. The matrix's kernel is held until Shutdown
// has begun, so one request is in flight and the rest are queued behind
// it when the drain starts — every connection past its request header,
// none left new to hold Shutdown past its bound.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DrainTimeout = 2 * time.Second
	s, base := bootServer(t, cfg)

	m := matrix.Random(400, 400, 0.02, 31)
	_, env := call(t, "POST", base+"/v1/matrices", UploadSpec{MatrixMarket: mmBody(t, m)})
	var up UploadResponse
	remarshal(t, env.Data, &up)
	url := base + "/v1/matrices/" + up.Info.Fingerprint + "/multiply"
	hosted, err := s.Registry().Get(up.Info.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	held := holdFormat(hosted.surface)
	hosted.co = NewCoalescer(s.base, held, cfg.MaxBatch)
	s.http.RegisterOnShutdown(func() { close(held.release) })

	const n = 6
	type result struct {
		status int
		ok     bool
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			b, _ := json.Marshal(MultiplyRequest{X: matrix.RandomVector(400, int64(i))})
			resp, err := http.Post(url, "application/json", bytes.NewReader(b))
			if err != nil {
				// Connection torn down without a response would be a drain
				// violation; report it as such.
				results <- result{status: -1}
				return
			}
			defer resp.Body.Close()
			var env envelope
			ok := json.NewDecoder(resp.Body).Decode(&env) == nil
			results <- result{status: resp.StatusCode, ok: ok && (env.OK || env.Error != nil)}
		}(i)
	}
	waitAdmitted(t, hosted.co, n)
	if k := held.started(t); k != 1 {
		t.Fatalf("held call carries %d, want 1", k)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for i := 0; i < n; i++ {
		select {
		case r := <-results:
			if r.status == -1 {
				t.Fatal("request torn down without a response during drain")
			}
			if !r.ok || r.status != 200 {
				t.Fatalf("drained request answered %d (valid envelope %v), want 200", r.status, r.ok)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request hung across shutdown — drain broken")
		}
	}
}

// After Shutdown returns, the listener is closed: new connections fail
// rather than hang.
func TestServerShutdownClosesListener(t *testing.T) {
	s, base := bootServer(t, DefaultConfig())
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// The envelope encoder: ok responses carry data and no error; error
// responses carry the code/message pair and ok=false.
func TestEnvelopeShape(t *testing.T) {
	s, base := bootServer(t, DefaultConfig())
	defer s.Shutdown(context.Background())

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["ok"]; !ok {
		t.Fatal(`envelope missing "ok"`)
	}
	if _, ok := raw["error"]; ok {
		t.Fatal(`ok envelope carries "error"`)
	}

	resp2, err := http.Get(base + "/v1/matrices/zzzz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp2.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.OK || env.Error == nil || env.Error.Code != "bad_request" || env.Error.Message == "" {
		t.Fatalf("error envelope: %+v", env)
	}
}

// Sanity for the fingerprint parser corner cases.
func TestParseFP(t *testing.T) {
	for _, bad := range []string{"", "123", "0123456789abcdefg", "0123456789abcde", "xyzzyxyzzyxyzzyx",
		// Sixteen bytes that are not sixteen hex digits.
		" 00000000000000f", "00000000000000fz", "00000000000000F\n", "0x0000000000000f", "0000000000000_0f"} {
		if _, err := parseFP(bad); err == nil {
			t.Fatalf("parseFP(%q) accepted", bad)
		}
	}
	fp, err := parseFP(fmt.Sprintf("%016x", uint64(0xdeadbeef)))
	if err != nil || fp != 0xdeadbeef {
		t.Fatalf("parseFP round-trip: %x %v", fp, err)
	}
}

// TestServerInfoEndpoint checks GET /v1/info reports the dispatch table
// and the autotuned parameters of exactly the hosted matrices that carry
// any. Which format the host's device model ranks first — and so whether a
// cold Tune upload has anything to tune — varies by machine, so the cold
// upload is checked against the hosted matrix's own Info, and the
// non-empty case is pinned through the warm-decision regime: a journaled
// BCSR decision, whose block geometry is swept on every host.
func TestServerInfoEndpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	sess, err := session.New(session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(cfg, sess)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	status, env := call(t, "GET", base+"/v1/info", nil)
	if status != 200 || !env.OK {
		t.Fatalf("info: %d %+v", status, env)
	}
	var info InfoResponse
	remarshal(t, env.Data, &info)
	if info.Level == "" || info.Detected == "" || info.Width < 1 {
		t.Fatalf("dispatch report incomplete: %+v", info)
	}
	if len(info.Kernels) == 0 {
		t.Fatalf("no kernel table in %+v", info)
	}
	for _, k := range info.Kernels {
		if k.Kernel == "" || k.Impl == "" {
			t.Fatalf("blank kernel row %+v", k)
		}
	}

	// checkTuned asserts the report lists exactly the hosted matrices whose
	// own Info carries tuning, with the same values, and returns the list.
	checkTuned := func() []MatrixTuning {
		t.Helper()
		_, env := call(t, "GET", base+"/v1/info", nil)
		var info InfoResponse
		remarshal(t, env.Data, &info)
		got := map[string]MatrixTuning{}
		for _, tu := range info.Tuned {
			got[tu.Fingerprint] = tu
		}
		want := 0
		for _, in := range s.Registry().List() {
			if len(in.Tuned) == 0 {
				if _, ok := got[in.Fingerprint]; ok {
					t.Errorf("untuned matrix %s listed as tuned", in.Fingerprint)
				}
				continue
			}
			want++
			tu, ok := got[in.Fingerprint]
			if !ok {
				t.Errorf("tuned matrix %s (%+v) missing from the report", in.Fingerprint, in.Tuned)
				continue
			}
			if tu.Format != in.Format || fmt.Sprint(tu.Params) != fmt.Sprint(in.Tuned) {
				t.Errorf("report entry %+v disagrees with the hosted matrix's Info %+v", tu, in)
			}
		}
		if len(info.Tuned) != want {
			t.Errorf("report lists %d tuned matrices, registry hosts %d", len(info.Tuned), want)
		}
		return info.Tuned
	}

	// Cold: whatever the host model picks, the report mirrors Hosted.Info.
	cold := matrix.Random(3000, 3000, 0.004, 7)
	status, env = call(t, "POST", base+"/v1/matrices",
		UploadSpec{Name: "cold", MatrixMarket: mmBody(t, cold), Tune: true})
	if status != 201 || !env.OK {
		t.Fatalf("upload: %d %+v", status, env)
	}
	checkTuned()

	// Warm: a remembered BCSR decision makes the upload tunable everywhere.
	warm := matrix.Tridiagonal(8000, 2, -1)
	sess.Cache().Put(cache.DecisionKey{
		Fingerprint: warm.Fingerprint(), Device: device.HostSpec().Name, K: 1,
	}, cache.Decision{Format: "BCSR"})
	status, env = call(t, "POST", base+"/v1/matrices",
		UploadSpec{Name: "warm", MatrixMarket: mmBody(t, warm), K: 1, Tune: true})
	if status != 201 || !env.OK {
		t.Fatalf("upload: %d %+v", status, env)
	}
	found := false
	for _, tu := range checkTuned() {
		if tu.Format == "BCSR" {
			found = true
			if tu.Fingerprint == "" || tu.Params[selector.ParamBCSRBlock] == "" {
				t.Errorf("BCSR tuning entry incomplete: %+v", tu)
			}
		}
	}
	if !found {
		t.Fatal("the remembered BCSR decision did not surface a tuning entry")
	}
}

// TestShutdownLeavesSuppliedSessionOpen: a session handed to NewServer
// belongs to the caller — two servers may share one journal — so Shutdown
// must not detach it; only a session NewServer opened itself is closed.
func TestShutdownLeavesSuppliedSessionOpen(t *testing.T) {
	sess, err := session.New(session.Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	s, err := NewServer(DefaultConfig(), sess)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sess.Store() == nil {
		t.Fatal("Shutdown detached the journal of a caller-supplied session")
	}
	before := sess.Store().Stats().Appended
	if _, err := sess.Auto(matrix.Random(200, 200, 0.05, 3), selector.AutoOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := sess.Store().Stats().Appended; got <= before {
		t.Fatalf("Auto after Shutdown appended %d records, want > %d", got, before)
	}
}

// parseTiming parses a Server-Timing value that must hold the first n of
// stageNames, in order, and returns their durations.
func parseTiming(t *testing.T, label, timing string, n int) []time.Duration {
	t.Helper()
	metrics := strings.Split(timing, ", ")
	if len(metrics) != n {
		t.Fatalf("%s: Server-Timing %q, want the first %d of %v", label, timing, n, stageNames)
	}
	stages := make([]time.Duration, n)
	for i, m := range metrics {
		name, dur, ok := strings.Cut(m, ";dur=")
		ms, err := strconv.ParseFloat(dur, 64)
		if !ok || err != nil || name != stageNames[i] || ms < 0 {
			t.Fatalf("%s: Server-Timing %q: metric %d does not parse as %s;dur=<ms>", label, timing, i, stageNames[i])
		}
		stages[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return stages
}
