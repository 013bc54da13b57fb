// Command benchmark is the repository's trajectory benchmark: five named
// workloads, in-library and over the wire, each verified, with end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// See README.md in this directory.
//
// Driver form (one workload, one JSON object as the last line of output):
//
//	go run -C benchmark . --workload lib-stream --seed 1 --seconds 18 --trace 0
//
// Report form (all workloads, untraced then traced):
//
//	go run -C benchmark . -seed 1 -json out.json -trace-out out.trace.json
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the root of module
// "repro", the tree whose facade and daemon are measured.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module repro above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// newEnv locates the tree under test, fixes the load model's processor
// cap and makes the run's scratch directory (the caller removes it).
func newEnv(seed int64, seconds float64, smoke bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if smoke {
		seconds = 1
	}
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	// The load generator runs at the same processor cap as the daemon
	// child and the client count: results are comparable at equal C.
	runtime.GOMAXPROCS(clientCount())
	e := &env{
		root:    root,
		build:   filepath.Join(root, ".bench_build", "benchmark"),
		clients: clientCount(),
		seed:    seed,
		seconds: seconds,
		smoke:   smoke,
	}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(e.build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func run() error {
	var (
		name     = flag.String("workload", "", "run one workload and print the driver's JSON result line (default: all, as a report)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "timed phase per run, cut into 1 s slots")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		runs     = flag.Int("runs", 1, "report form: untraced runs per workload, on seeds seed, seed+1, ...")
		jsonOut  = flag.String("json", "", "report form: write the report here")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans here")
		smoke    = flag.Bool("smoke", false, "report form: 1 s per workload, schema check only")
		compare  = flag.Bool("compare", false, "compare two reports: -compare base.json change.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	e, err := newEnv(*seed, *seconds, *smoke)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.scratch)

	// An interrupt must not leave a daemon child behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killLive()
		os.RemoveAll(e.scratch)
		os.Exit(130)
	}()

	if *name != "" {
		return runDriver(e, *name, *trace == 1, *traceOut)
	}
	return runReport(e, *runs, *jsonOut, *traceOut)
}

// untraced and traced dispatch on the workload's kind.
func untraced(e *env, w workload) (*runResult, error) {
	if w.Kind == kindLib {
		return runLib(e, w)
	}
	return runServed(e, w)
}

// driverResult is the contract's result line. Each metric holds exactly
// value and unit: the sample counts beside the report's percentiles have
// no place in it, so lineMetric cannot carry one.
type driverResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one workload once and prints the result object as the
// last line of standard output. A verification failure still prints the
// line (correct: false) and then fails the command.
func runDriver(e *env, name string, traced bool, traceOut string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res driverResult
	if traced {
		l, err := runTraced(e, w)
		if err != nil {
			return err
		}
		if err := writeSpans(traceOut, map[string][]span{w.Name: l.spans}); err != nil {
			return err
		}
		res = driverResult{Attempted: l.Attempted, Failed: l.Failed, Metrics: map[string]lineMetric{}}
		for _, m := range perLayer {
			res.Metrics[m.Name] = lineMetric{Value: l.Metrics[m.Name].Value, Unit: m.Unit}
		}
	} else {
		r, err := untraced(e, w)
		if err != nil {
			return err
		}
		res = driverResult{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = lineMetric{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
		}
		fmt.Fprintf(os.Stderr, "%s: format %s, fail_ratio %g, %d latency samples, context %v, windows %v\n",
			w.Name, r.Format, r.Metrics["fail_ratio"].Value, r.Metrics["lat_ms_mean"].N, r.Info, r.Windows)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or did not match the reference", name, res.Failed, res.Attempted)
	}
	return nil
}

// buildReport runs every workload, untraced (runs times, on consecutive
// seeds) then traced. failed counts operations that failed or did not
// match their reference, over all runs.
func buildReport(e *env, runs int) (rep *report, spans map[string][]span, failed int, err error) {
	rep = &report{Host: describeHost(e.root, e.seed), Seconds: e.seconds}
	spans = map[string][]span{}
	for _, w := range workloads {
		wr := workloadReport{Name: w.Name, Why: w.Why}
		for i := 0; i < runs; i++ {
			re := *e
			re.seed = e.seed + int64(i)
			fmt.Fprintf(os.Stderr, "%s: untraced run %d/%d (seed %d)\n", w.Name, i+1, runs, re.seed)
			r, err := untraced(&re, w)
			if err != nil {
				return nil, nil, 0, err
			}
			failed += r.Failed
			wr.Runs = append(wr.Runs, *r)
		}
		fmt.Fprintf(os.Stderr, "%s: traced run\n", w.Name)
		l, err := runTraced(e, w)
		if err != nil {
			return nil, nil, 0, err
		}
		failed += l.Failed
		wr.Layers = l
		spans[w.Name] = l.spans
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, spans, failed, nil
}

// runReport prints every metric of every workload by name with its unit
// and writes the report; any failed operation fails the command.
func runReport(e *env, runs int, jsonOut, traceOut string) error {
	rep, spans, failed, err := buildReport(e, runs)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := writeSpans(traceOut, spans); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or did not match the reference", failed)
	}
	return nil
}

// writeSpans writes the traced runs' spans, kept in memory until now.
func writeSpans(path string, spans map[string][]span) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
