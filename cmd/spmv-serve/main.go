// Command spmv-serve hosts matrices behind an HTTP API and coalesces
// concurrent single-vector multiply requests into fused multi-vector
// kernel calls by group commit: each matrix runs at most one kernel call
// at a time, a request that finds it idle runs at once, and the requests
// that arrive meanwhile ride the next call together. Upload (and pay
// format selection for) a matrix once, then let k concurrent clients
// share one matrix sweep instead of issuing k.
//
// Usage:
//
//	spmv-serve [flags]
//
// Flags:
//
//	-addr HOST:PORT   listen address (default :8097; :0 picks a free
//	                  port and the bound address is printed)
//	-max-batch N      at most N queued requests ride one kernel call
//	                  (default 8, where the fused kernels' per-vector
//	                  gain flattens; 1 disables batching)
//	-cache-dir DIR    selection journal directory (default
//	                  $SPMV_CACHE_DIR; empty = memory-only)
//	-rhs K            default right-hand-side regime hint for uploads
//	-probe            micro-probe the selection shortlist on upload
//	-drain DUR        graceful-shutdown bound: past it, in-flight
//	                  kernels are cancelled and their requests answered
//	                  with the typed cancellation (default 5s)
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
//	                                     engine's dispatch counters
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

	"repro/internal/cache"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spmv-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	// Every setting has one source, its flag; the defaults are
	// serve.DefaultConfig's, and the journal directory's is the library's
	// own variable, so the daemon journals where the tools do.
	cfg := serve.DefaultConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "most queued requests one kernel call carries (1 disables batching)")
	flag.StringVar(&cfg.CacheDir, "cache-dir", os.Getenv(cache.EnvCacheDir), "selection journal directory")
	flag.IntVar(&cfg.K, "rhs", cfg.K, "default right-hand-side regime hint for uploads")
	flag.BoolVar(&cfg.Probe, "probe", cfg.Probe, "micro-probe the selection shortlist on upload")
	flag.DurationVar(&cfg.DrainTimeout, "drain", cfg.DrainTimeout, "graceful-shutdown bound")
	flag.Parse()

	srv, err := serve.NewServer(cfg, nil)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	// The e2e harness parses this line to learn the bound port (-addr :0).
	fmt.Printf("spmv-serve listening on %s (max batch %d)\n", srv.Addr(), cfg.MaxBatch)

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
