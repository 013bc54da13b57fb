package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live holds every child process the benchmark has started and not yet
// reaped, so an interrupt can kill them before the process exits.
var live sync.Map // *daemon -> struct{}

// killLive kills every child still running; the signal handler's last act.
func killLive() {
	live.Range(func(k, _ any) bool {
		k.(*daemon).cmd.Process.Kill()
		return true
	})
}

// buildDaemon compiles spmv-serve from the tree under test into the run's
// scratch space. The go build cache makes a repeat build a no-op, and
// always building means a stale binary is never measured.
func (e *env) buildDaemon() error {
	bin := filepath.Join(e.build, "spmv-serve")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spmv-serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/spmv-serve: %w\n%s", err, out)
	}
	e.daemon = bin
	return nil
}

// bannerWriter collects the child's output and hands over the bound
// address once the "listening on" banner has been written, the way
// cmd/spmv-serve/e2e_test.go learns an ephemeral port.
type bannerWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrc chan string
	sent  bool
}

func (w *bannerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok {
			if j := strings.IndexAny(rest, " \n"); j > 0 {
				w.sent = true
				w.addrc <- rest[:j]
			}
		}
	}
	return len(p), nil
}

func (w *bannerWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// daemon is one spmv-serve child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://addr
	out    *bannerWriter
	exited chan struct{} // closed once Wait has returned
}

// startDaemon boots a child on an ephemeral loopback port with a fresh,
// empty journal directory and the load model's processor cap, and returns
// once it is listening.
func (e *env) startDaemon() (*daemon, error) {
	cacheDir, err := e.tempDir("daemon-cache")
	if err != nil {
		return nil, err
	}
	out := &bannerWriter{addrc: make(chan string, 1)}
	cmd := exec.Command(e.daemon, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(),
		"SPMV_CACHE_DIR="+cacheDir,
		"GOMAXPROCS="+strconv.Itoa(e.clients))
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spmv-serve: %w", err)
	}
	d := &daemon{cmd: cmd, out: out, exited: make(chan struct{})}
	live.Store(d, struct{}{})
	go func() {
		cmd.Wait() // the exit status of a killed child carries no news
		live.Delete(d)
		close(d.exited)
	}()
	select {
	case addr := <-out.addrc:
		d.base = "http://" + addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("spmv-serve exited before binding:\n%s", out.String())
	case <-time.After(requestDeadline):
		d.stop()
		return nil, fmt.Errorf("spmv-serve never bound:\n%s", out.String())
	}
}

// stop drains the child with SIGTERM, kills it if the drain outlasts its
// bound, and returns only when the process has been reaped.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return
	case <-time.After(8 * time.Second): // the daemon's own drain bound is 5 s
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() float64 {
	return float64(procKB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM")) / 1024
}
