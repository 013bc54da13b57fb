// Command spmv-bench runs the paper's experiments and prints their tables.
//
// Usage:
//
//	spmv-bench [flags] <experiment>...
//	spmv-bench all                     # every table and figure
//	spmv-bench fig3 fig7               # selected experiments
//	spmv-bench -list                   # list experiment ids
//
// Flags:
//
//	-dataset small|medium|large   artificial dataset size (default medium)
//	-sample N                     subsample the grid to ~N points (0 = full)
//	-devices a,b,c                run on these devices ("host" measures this machine)
//	-seed N                       sampling/generator seed
//	-csv DIR                      also write one CSV per report into DIR
//	-json FILE                    also write all reports as JSON into FILE
//
// The experiments are the paper's Tables II-IV and Figs 1-9. By default
// they run on the nine simulated testbeds; "-devices host" runs the same
// figure code on this machine, generating every point (up to 256 MB; a
// larger one is infeasible) and timing every format's kernels on it.
// One matrix under one format or "auto" is spmv-run's job; performance
// over time is the benchmark/ module's (see docs/BENCHMARKS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/device"
)

func main() {
	var (
		dsName  = flag.String("dataset", "medium", "dataset size: small, medium or large")
		sample  = flag.Int("sample", 0, "subsample the grid to ~N points (0 = full grid)")
		devices = flag.String("devices", "", "comma-separated device names, the testbeds or host (default: each experiment's)")
		seed    = flag.Int64("seed", 1, "sampling and generator seed")
		csvDir  = flag.String("csv", "", "directory to also write CSV reports into")
		jsonOut = flag.String("json", "", "file to also write all reports into as JSON")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.DefaultOptions()
	opts.Seed = *seed
	switch *dsName {
	case "small":
		opts.Dataset = dataset.Small
	case "medium":
		opts.Dataset = dataset.Medium
	case "large":
		opts.Dataset = dataset.Large
	default:
		fatalf("unknown dataset %q (small, medium, large)", *dsName)
	}
	if *sample < 0 {
		fatalf("bad -sample %d (want >= 0)", *sample)
	}
	opts.SampleN = *sample
	if *devices != "" {
		opts.Devices = strings.Split(*devices, ",")
		for _, name := range opts.Devices {
			if _, ok := device.ByName(name); !ok {
				fatalf("unknown device %q (%s, host)", name, strings.Join(device.Names(), ", "))
			}
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fatalf("no experiments given; use 'all' or see -list")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = bench.IDs()
	}

	var collected []*bench.Report
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			fatalf("unknown experiment %q; see -list", id)
		}
		for i, r := range e.Run(opts) {
			if err := r.Render(os.Stdout); err != nil {
				fatalf("render %s: %v", id, err)
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, id, i, r); err != nil {
					fatalf("csv %s: %v", id, err)
				}
			}
			collected = append(collected, r)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, collected); err != nil {
			fatalf("json: %v", err)
		}
	}
}

// writeJSON dumps the reports as an indented JSON array so external tools
// can read the tables without scraping text.
func writeJSON(path string, reports []*bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

func writeCSV(dir, id string, i int, r *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%d.csv", id, i)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteCSV(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spmv-bench: "+format+"\n", args...)
	os.Exit(1)
}
