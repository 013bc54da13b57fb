package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// envelope mirrors the server's uniform response shape.
type envelope struct {
	OK    bool            `json:"ok"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// captureWriter is a concurrency-safe stdout sink that also watches for
// the daemon's "listening on" banner. Writing through an io.Writer (not
// StdoutPipe) lets cmd.Wait run without racing the reader: the writer
// sees every byte before Wait returns.
type captureWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrc chan string
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	all := w.buf.String()
	w.mu.Unlock()
	if i := strings.Index(all, "listening on "); i >= 0 {
		rest := all[i+len("listening on "):]
		if j := strings.IndexAny(rest, " \n"); j > 0 {
			select {
			case w.addrc <- rest[:j]:
			default:
			}
		}
	}
	return len(p), nil
}

func (w *captureWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// daemon is one spmv-serve process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://addr
	out  *captureWriter
	done chan error
}

// buildDaemon compiles the binary under test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spmv-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon boots bin on an ephemeral port with the given extra flags
// and environment, parsing the bound address off its banner line.
func startDaemon(t *testing.T, bin string, args []string, env ...string) *daemon {
	t.Helper()
	out := &captureWriter{addrc: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-drain", "3s"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	d := &daemon{cmd: cmd, out: out, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	select {
	case addr := <-out.addrc:
		d.base = "http://" + addr
	case err := <-d.done:
		t.Fatalf("daemon exited before binding: %v\n%s", err, d.out.String())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never bound\n%s", d.out.String())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
		}
	})
	return d
}

// post sends a JSON body and returns status + decoded envelope, failing
// the test on transport or envelope-schema violations.
func (d *daemon) post(t *testing.T, path string, body any) (int, envelope) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeEnvelope(t, path, resp)
}

func (d *daemon) get(t *testing.T, path string) (int, envelope) {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeEnvelope(t, path, resp)
}

// decodeEnvelope asserts the uniform schema: ok xor error, error carries
// code and message.
func decodeEnvelope(t *testing.T, path string, resp *http.Response) envelope {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s: response is not the envelope: %v\n%s", path, err, raw)
	}
	if env.OK && env.Error != nil {
		t.Fatalf("%s: ok envelope carries an error: %s", path, raw)
	}
	if !env.OK && (env.Error == nil || env.Error.Code == "" || env.Error.Message == "") {
		t.Fatalf("%s: error envelope missing code/message: %s", path, raw)
	}
	return env
}

// tinyMM is a 4x4 MatrixMarket body small enough to inline.
const tinyMM = `%%MatrixMarket matrix coordinate real general
4 4 6
1 1 2.0
1 3 1.0
2 2 3.0
3 1 4.0
3 4 1.5
4 4 5.0
`

// The serve CI job's end-to-end smoke: boot on a random port, upload
// (auto-select), multiply, updatable Set, multiply again (update
// visible), typed 400 on a short vector, then SIGTERM with requests in
// flight and assert the drain contract: every request answered, clean
// exit 0.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	d := startDaemon(t, buildDaemon(t), nil)

	status, env := d.get(t, "/v1/healthz")
	if status != 200 || !env.OK {
		t.Fatalf("healthz: %d %+v", status, env)
	}

	// Upload an updatable generator-built matrix (exercises selection)
	// and the tiny literal MatrixMarket one (exercises the parser).
	status, env = d.post(t, "/v1/matrices", map[string]any{
		"name":      "gen-e2e",
		"generator": map[string]any{"rows": 500, "cols": 500, "avgnnzperrow": 8, "stdnnzperrow": 2, "bwscaled": 0.4, "seed": 7},
	})
	if status != 201 || !env.OK {
		t.Fatalf("generator upload: %d %s", status, env.Data)
	}
	status, env = d.post(t, "/v1/matrices", map[string]any{
		"name": "tiny", "matrixmarket": tinyMM, "updatable": true,
	})
	if status != 201 || !env.OK {
		t.Fatalf("mm upload: %d", status)
	}
	var up struct {
		Info struct {
			Fingerprint string `json:"fingerprint"`
			Format      string `json:"format"`
			Updatable   bool   `json:"updatable"`
		} `json:"info"`
		Created bool `json:"created"`
	}
	if err := json.Unmarshal(env.Data, &up); err != nil {
		t.Fatal(err)
	}
	if !up.Created || up.Info.Fingerprint == "" || up.Info.Format == "" || !up.Info.Updatable {
		t.Fatalf("upload response: %+v", up)
	}
	fp := up.Info.Fingerprint

	// Multiply: y = A * e1 is column 1 of the tiny matrix: (2,0,4,0).
	mult := func() []float64 {
		status, env := d.post(t, "/v1/matrices/"+fp+"/multiply", map[string]any{
			"x": []float64{1, 0, 0, 0},
		})
		if status != 200 || !env.OK {
			t.Fatalf("multiply: %d %+v", status, env.Error)
		}
		var mr struct {
			Y     []float64 `json:"y"`
			Batch int       `json:"batch"`
		}
		if err := json.Unmarshal(env.Data, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Batch < 1 {
			t.Fatalf("batch = %d", mr.Batch)
		}
		return mr.Y
	}
	y := mult()
	if len(y) != 4 || y[0] != 2 || y[2] != 4 {
		t.Fatalf("y = %v, want [2 0 4 0]", y)
	}

	// Updatable Set, visible in the next multiply.
	status, env = d.post(t, "/v1/matrices/"+fp+"/cells", []map[string]any{
		{"row": 1, "col": 0, "val": 9.5},
	})
	if status != 200 || !env.OK {
		t.Fatalf("cells: %d %+v", status, env.Error)
	}
	if y := mult(); y[1] != 9.5 {
		t.Fatalf("cell set not visible: y = %v", y)
	}

	// Typed 400, not a leaked 500, on a wrong-length vector.
	status, env = d.post(t, "/v1/matrices/"+fp+"/multiply", map[string]any{"x": []float64{1}})
	if status != 400 || env.OK || env.Error.Code != "dimension_mismatch" {
		t.Fatalf("short vector: %d %+v", status, env.Error)
	}

	// SIGTERM once every request has been admitted (the daemon's request
	// counter says so, no sleep): each is answered, running, or queued
	// behind the matrix's kernel call when the signal lands — none still
	// connecting. One connection per request: a pooled client may dial a
	// connection it then never sends on, and the daemon's drain waits
	// for such a connection past its bound. Drain contract: every request
	// gets an HTTP response (200/499/503 — never a torn connection), and
	// the daemon exits 0.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	admitted := func() uint64 {
		resp, err := client.Get(d.base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		env := decodeEnvelope(t, "/v1/stats", resp)
		var st struct {
			Totals struct {
				Requests uint64 `json:"requests"`
			} `json:"totals"`
		}
		if err := json.Unmarshal(env.Data, &st); err != nil {
			t.Fatal(err)
		}
		return st.Totals.Requests
	}
	const inflight = 8
	before := admitted()
	results := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			body, _ := json.Marshal(map[string]any{"x": []float64{0, 1, 0, 0}})
			resp, err := client.Post(d.base+"/v1/matrices/"+fp+"/multiply",
				"application/json", bytes.NewReader(body))
			if err != nil {
				results <- -1
				return
			}
			defer resp.Body.Close()
			var env envelope
			if json.NewDecoder(resp.Body).Decode(&env) != nil {
				results <- -2
				return
			}
			results <- resp.StatusCode
		}()
	}
	for deadline := time.Now().Add(30 * time.Second); admitted() < before+inflight; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", admitted()-before, inflight)
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < inflight; i++ {
		select {
		case code := <-results:
			switch code {
			case 200, 499, 503:
			case -1:
				t.Fatal("in-flight request torn down without a response during drain")
			case -2:
				t.Fatal("in-flight request answered without a valid envelope")
			default:
				t.Fatalf("in-flight request answered %d, want 200/499/503", code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("in-flight request hung across SIGTERM — drain broken")
		}
	}

	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, d.out.String())
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon never exited after SIGTERM\n%s", d.out.String())
	}
	if !strings.Contains(d.out.String(), "drained") {
		t.Fatalf("daemon exited without the drain notice:\n%s", d.out.String())
	}
}

// Each daemon setting has one source, its flag: a malformed value or a
// flag the daemon does not have (-window and -config are gone) is a usage
// error, and the journal directory's default is the library's
// SPMV_CACHE_DIR, which -cache-dir beats.
func TestDaemonConfigPrecedence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon")
	}
	bin := buildDaemon(t)
	for _, bad := range [][]string{{"-window", "5ms"}, {"-max-batch", "lots"}, {"-probe=maybe"}, {"-config", "serve.json"}} {
		out, err := exec.Command(bin, bad...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "Usage") {
			t.Errorf("spmv-serve %v: %v, want the usage exit 2\n%s", bad, err, out)
		}
	}

	// journals reports whether an upload's decision landed in dir.
	journals := func(dir string) bool {
		_, err := os.Stat(filepath.Join(dir, "decisions.jsonl"))
		return err == nil
	}
	for _, tc := range []struct {
		name string
		flag bool
	}{{"SPMV_CACHE_DIR alone", false}, {"-cache-dir beside it", true}} {
		envDir, flagDir := t.TempDir(), t.TempDir()
		var args []string
		if tc.flag {
			args = []string{"-cache-dir", flagDir}
		}
		d := startDaemon(t, bin, args, "SPMV_CACHE_DIR="+envDir)
		if !strings.Contains(d.out.String(), "(max batch 8)") {
			t.Errorf("%s: banner does not show the default max batch:\n%s", tc.name, d.out.String())
		}
		status, env := d.post(t, "/v1/matrices", map[string]any{
			"generator": map[string]any{"rows": 500, "cols": 500, "avgnnzperrow": 8, "stdnnzperrow": 2, "bwscaled": 0.4, "seed": 7},
		})
		if status != 201 || !env.OK {
			t.Fatalf("%s: upload: %d %s", tc.name, status, env.Data)
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: daemon never exited", tc.name)
		}
		if journals(flagDir) != tc.flag || journals(envDir) == tc.flag {
			t.Errorf("%s: journal in the flag's directory %v, in the variable's %v", tc.name, journals(flagDir), journals(envDir))
		}
	}
}
