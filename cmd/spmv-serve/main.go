// Command spmv-serve hosts matrices behind an HTTP API and coalesces
// concurrent single-vector multiply requests into fused multi-vector
// kernel calls — the inference-serving recipe applied to SpMV: upload
// (and pay format selection for) a matrix once, then let k concurrent
// clients share one matrix sweep instead of issuing k.
//
// Usage:
//
//	spmv-serve [flags]
//
// Flags (resolution order: flag > environment > -config file > default):
//
//	-addr HOST:PORT   listen address (default :8097; :0 picks a free
//	                  port and the bound address is printed)
//	-window DUR       coalescing window armed by the first request of a
//	                  batch (default 200us; 0 disables batching)
//	-max-batch N      flush a batch early at N gathered requests
//	                  (default 8, where the fused kernels' per-vector
//	                  gain flattens)
//	-cache-dir DIR    selection journal directory (default
//	                  SPMV_CACHE_DIR; empty = memory-only)
//	-shards N         shard count recorded in decision keys (0 = live
//	                  topology)
//	-rhs K            default right-hand-side regime hint for uploads
//	-probe            micro-probe the selection shortlist on upload
//	-drain DUR        graceful-shutdown bound: past it, in-flight
//	                  kernels are cancelled and their requests answered
//	                  with the typed cancellation (default 5s)
//	-config FILE      JSON config file (the lowest-priority layer)
//
// Environment: SPMV_SERVE_ADDR, SPMV_SERVE_WINDOW, SPMV_SERVE_MAXBATCH,
// SPMV_SERVE_DRAIN, SPMV_SERVE_K, SPMV_SERVE_SHARDS, SPMV_SERVE_PROBE,
// SPMV_CACHE_DIR.
//
// API (all responses use the {ok, data, error:{code,message}} envelope):
//
//	GET    /v1/healthz                   liveness + hosted count
//	POST   /v1/matrices                  upload: {"matrixmarket": "..."} or
//	                                     {"generator": {...}}, plus
//	                                     "name", "updatable", "k", "probe"
//	GET    /v1/matrices                  list hosted matrices
//	GET    /v1/matrices/{fp}             one matrix's info + batching stats
//	DELETE /v1/matrices/{fp}             unhost (in-flight requests drain)
//	POST   /v1/matrices/{fp}/multiply    {"x": [...]} -> {"y": [...], "batch": n}
//	POST   /v1/matrices/{fp}/cells       [{"row","col","val"|"delete"}] on
//	                                     an updatable host
//	GET    /v1/stats                     per-matrix batching + totals, and the
//	                                     engine's per-shard dispatch counters
//
// SIGINT/SIGTERM drain gracefully: accepted requests get a result or a
// typed cancellation (HTTP 499) before the process exits; none hang.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spmv-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "JSON config file (lowest-priority layer)")
		addr       = flag.String("addr", "", "listen address")
		window     = flag.Duration("window", 0, "coalescing window (0 disables batching)")
		maxBatch   = flag.Int("max-batch", 0, "flush a batch early at this many requests")
		cacheDir   = flag.String("cache-dir", "", "selection journal directory")
		shards     = flag.Int("shards", 0, "shard count recorded in decision keys")
		rhs        = flag.Int("rhs", 0, "default right-hand-side regime hint for uploads")
		probe      = flag.Bool("probe", false, "micro-probe the selection shortlist on upload")
		drain      = flag.Duration("drain", 0, "graceful-shutdown bound")
	)
	flag.Parse()

	// Resolution order flag > env > file: start from defaults, overlay the
	// file, overlay the environment, then overlay only the flags the user
	// actually set.
	cfg := serve.DefaultConfig()
	if err := cfg.ApplyFile(*configPath); err != nil {
		return err
	}
	if err := cfg.ApplyEnv(nil); err != nil {
		return err
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr":
			cfg.Addr = *addr
		case "window":
			cfg.Window = *window
		case "max-batch":
			cfg.MaxBatch = *maxBatch
		case "cache-dir":
			cfg.CacheDir = *cacheDir
		case "shards":
			cfg.Shards = *shards
		case "rhs":
			cfg.K = *rhs
		case "probe":
			cfg.Probe = *probe
		case "drain":
			cfg.DrainTimeout = *drain
		}
	})

	srv, err := serve.NewServer(cfg, nil)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	// The e2e harness parses this line to learn the bound port (-addr :0).
	fmt.Printf("spmv-serve listening on %s (window %v, max batch %d)\n",
		srv.Addr(), cfg.Window, cfg.MaxBatch)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	select {
	case err := <-errc:
		return err
	case sig := <-sigs:
		fmt.Printf("spmv-serve: %v, draining (bound %v)\n", sig, cfg.DrainTimeout)
		// Shutdown's own context outlives the drain timeout so the typed
		// cancellation path can answer the stragglers before we return.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout+5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		fmt.Println("spmv-serve: drained, bye")
		return nil
	}
}
