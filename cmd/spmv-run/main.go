// Command spmv-run measures real SpMV kernels on the host CPU for one
// matrix, either read from MatrixMarket or generated on the fly, the host
// model's estimate beside each: run it with no -format to see why Auto
// chose what it chose.
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
	"slices"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
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
	fv := core.Extract(m)
	fmt.Printf("matrix: %s\n", m)
	fmt.Printf("features: mem_footprint %.2f MiB, avg_nz_row %.2f, skew_coeff %.2f, cross_row_sim %.3f, avg_num_neigh %.3f (bw_scaled %.4f, %s)\n",
		fv.MemFootprintMB, fv.AvgNNZPerRow, fv.SkewCoeff, fv.CrossRowSim, fv.AvgNumNeigh, fv.BWScaled, fv.RegularityLabel())
	if fs := simd.Features(); len(fs) > 0 {
		fmt.Printf("simd: %s dispatch, %d float64 lanes (detected: %s; SPMV_SIMD_LEVEL=scalar forces scalar)\n",
			simd.Level(), simd.Width(), strings.Join(fs, " "))
	} else {
		fmt.Println("simd: scalar dispatch (no accelerated kernels for this CPU)")
	}

	// Every feasible format in the order Auto would take them at k = 1.
	host := device.HostSpec()
	ranked := selector.Shortlist(host, fv, 1, len(host.Formats))
	engine := device.NativeEngine{Workers: *workers, Iterations: *iters}
	var measured, modeled []float64 // of the formats that ran and the model rates, in run order
	pickGFLOPS := 0.0               // measured rate of the model's first choice
	run := func(b formats.Builder) {
		res := engine.Run(m, b)
		if res.Err != nil { // build refused, or a first product that failed verification
			fmt.Printf("%-10s no rate: %v\n", b.Name, res.Err)
			return
		}
		fmt.Printf("%-10s %8.3f GFLOPS  (%d iters, %d workers, %.3fs)", res.Format, res.GFLOPS, res.Iterations, res.Workers, res.Seconds)
		if rank := slices.Index(ranked, b.Name) + 1; rank > 0 {
			r := host.RankMulti(fv, b.Name, 1)
			fmt.Printf("  model %7.3f  #%-2d %-26s", r.GFLOPS, rank, r.Bottleneck)
			measured, modeled = append(measured, res.GFLOPS), append(modeled, r.GFLOPS)
			if rank == 1 {
				pickGFLOPS = res.GFLOPS
			}
		}
		if *file != "" {
			fmt.Printf("  %8.2f MiB  pad %6.3f  meta %5.2f B/nnz  %s",
				float64(res.Bytes)/(1<<20), res.Traits.PaddingRatio, res.Traits.MetaBytesPerNNZ, res.Traits.Balancing)
		}
		fmt.Println()
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
	if best := slices.Max(append(measured, 0)); best > 0 {
		fmt.Printf("model's pick (%s) retains %.2f of the measured best; Spearman rho %.2f over %d formats\n",
			ranked[0], pickGFLOPS/best, spearman(measured, modeled), len(measured))
	}
	if *file != "" {
		fmt.Println("device-model predictions (best format):")
		for _, spec := range device.Testbeds() {
			name, res, ok := spec.BestFormat(fv)
			if !ok {
				fmt.Printf("  %-12s infeasible\n", spec.Name)
				continue
			}
			fmt.Printf("  %-12s %8.2f GFLOPS  %6.1f W  %.3f GFLOPS/W  best=%s  bottleneck=%s\n",
				spec.Name, res.GFLOPS, res.Watts, res.GFLOPSPerWatt(), name, res.Bottleneck)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spmv-run: "+format+"\n", args...)
	os.Exit(1)
}

// spearman is the rank correlation of two equally long samples (ties rank
// in index order).
func spearman(a, b []float64) float64 {
	rank := func(v []float64) []float64 {
		r := make([]float64, len(v))
		for i := range v {
			for j := range v {
				if v[j] < v[i] || (v[j] == v[i] && j < i) {
					r[i]++
				}
			}
		}
		return r
	}
	ra, rb, d2 := rank(a), rank(b), 0.0
	for i := range ra {
		d2 += (ra[i] - rb[i]) * (ra[i] - rb[i])
	}
	n := float64(len(a))
	return 1 - 6*d2/max(n*(n*n-1), 1)
}
