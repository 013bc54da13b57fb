// Command spmv-run measures real SpMV kernels on the host CPU for one
// matrix, either read from MatrixMarket or generated on the fly.
//
// Usage:
//
//	spmv-run -file matrix.mtx -format CSR5 -workers 8 -iters 64
//	spmv-run -rows 200000 -avg 20 -skew 100     # generated matrix, all formats
//	spmv-run -format auto -rhs 8                # let the selector choose for k=8
//	spmv-run -format auto -cache-dir /var/cache/spmv   # warm across restarts
//
// -format auto invokes the selection subsystem: the five-feature vector is
// extracted, the device model shortlists candidates for the -rhs regime, a
// micro-probe times them on a row sample, and the measured winner runs.
// With -cache-dir (or SPMV_CACHE_DIR) the decision and the probe outcome
// journal to disk, so the next process run skips ranking and probing for
// the same matrix; -cold deletes the journal first.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/session"
	"repro/internal/simd"
)

func main() {
	var (
		file     = flag.String("file", "", "MatrixMarket input (empty: generate)")
		format   = flag.String("format", "", "single format to run (empty: all; \"auto\": selection subsystem)")
		rhs      = flag.Int("rhs", 1, "right-hand-side count the auto selector targets")
		cacheDir = flag.String("cache-dir", "", "journal directory for persistent auto-selection decisions (empty = SPMV_CACHE_DIR or off)")
		cold     = flag.Bool("cold", false, "delete the journal before selecting (cold cache)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		iters    = flag.Int("iters", 32, "SpMV iterations to time")
		rows     = flag.Int("rows", 200000, "generated matrix rows")
		avg      = flag.Float64("avg", 20, "generated average nonzeros per row")
		skew     = flag.Float64("skew", 0, "generated skew coefficient")
		sim      = flag.Float64("sim", 0.5, "generated cross-row similarity")
		neigh    = flag.Float64("neigh", 1.0, "generated avg neighbors")
		bw       = flag.Float64("bw", 0.3, "generated scaled bandwidth")
		seed     = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	// Persistence flags act regardless of -format, so `-cold` always
	// deletes the journal it names (silently ignoring it would leave the
	// cache the user asked to clear warm for the next auto run).
	dir := *cacheDir
	if dir == "" {
		dir = os.Getenv(cache.EnvCacheDir)
	}
	if *cold {
		if dir == "" {
			fatalf("-cold needs a journal: give -cache-dir or set %s", cache.EnvCacheDir)
		}
		if err := cache.RemoveJournal(dir); err != nil {
			fatalf("cold start: %v", err)
		}
	}

	var m *matrix.CSR
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatalf("%v", err)
		}
		mm, err := matrix.ReadMatrixMarket(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			fatalf("parse: %v", err)
		}
		m = mm
	} else {
		mm, err := gen.Generate(gen.Params{
			Rows: *rows, Cols: *rows,
			AvgNNZPerRow: *avg, StdNNZPerRow: *avg * 0.3,
			SkewCoeff: *skew, BWScaled: *bw,
			CrossRowSim: *sim, AvgNumNeigh: *neigh, Seed: *seed,
		})
		if err != nil {
			fatalf("generate: %v", err)
		}
		m = mm
	}
	fmt.Printf("matrix: %s\n", m)
	if fs := simd.Features(); len(fs) > 0 {
		fmt.Printf("simd: %s dispatch, %d float64 lanes (detected: %s; SPMV_SIMD_LEVEL=scalar forces scalar)\n",
			simd.Level(), simd.Width(), strings.Join(fs, " "))
	} else {
		fmt.Println("simd: scalar dispatch (no accelerated kernels for this CPU)")
	}

	engine := device.NativeEngine{Workers: *workers, Iterations: *iters}
	run := func(b formats.Builder) {
		res := engine.Run(m, b)
		if res.Err != nil { // build refused, or a first product that failed verification
			fmt.Printf("%-10s no rate: %v\n", b.Name, res.Err)
			return
		}
		fmt.Printf("%-10s %8.3f GFLOPS  (%d iters, %d workers, %.3fs)\n",
			res.Format, res.GFLOPS, res.Iterations, res.Workers, res.Seconds)
	}
	if *format == "auto" {
		sess, err := session.New(session.Options{CacheDir: dir})
		if err != nil {
			fatalf("persistence: %v", err)
		}
		defer sess.Close()
		af, err := sess.Auto(m, selector.AutoOptions{K: *rhs, Probe: true})
		if err != nil {
			fatalf("auto selection: %v", err)
		}
		c := af.Choice()
		fmt.Printf("auto: chose %s for k=%d on %s (shortlist %s, probed=%v, cached=%v, learned=%v)\n",
			af.Chosen(), c.K, c.Device, strings.Join(c.Shortlist, " > "), c.Probed, c.Cached, c.Learned)
		if st := sess.Store(); st != nil {
			ss := st.Stats()
			fmt.Printf("journal: %s (%d decisions loaded, %d appended)\n",
				ss.Path, ss.Decisions, ss.Appended)
		}
		if *rhs > 1 {
			// Measure the regime the selector actually targeted: one fused
			// k-wide MultiplyMany per iteration, not k=1 SpMV.
			k := *rhs
			x := matrix.RandomVector(m.Cols*k, 12345)
			y := make([]float64, m.Rows*k)
			af.MultiplyMany(y, x, k) // warm-up, page-in, plan-cache fill
			start := time.Now()
			for i := 0; i < *iters; i++ {
				af.MultiplyMany(y, x, k)
			}
			secs := time.Since(start).Seconds()
			gflops := 0.0
			if secs > 0 {
				gflops = 2 * float64(m.NNZ()) * float64(k) * float64(*iters) / secs / 1e9
			}
			fmt.Printf("%-10s %8.3f GFLOPS  (%d iters of k=%d MultiplyMany, %.3fs)\n",
				af.Name(), gflops, *iters, k, secs)
			return
		}
		run(formats.Builder{
			Name:  af.Name(),
			Build: func(*matrix.CSR) (formats.Format, error) { return af, nil },
		})
		return
	}
	if *format != "" {
		b, ok := formats.Lookup(*format)
		if !ok {
			fatalf("unknown format %q", *format)
		}
		run(b)
		return
	}
	for _, b := range formats.Registry() {
		run(b)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spmv-run: "+format+"\n", args...)
	os.Exit(1)
}
