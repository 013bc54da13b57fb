package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/simd"
)

// metric is one named measurement. N is the sample count behind a
// percentile (0 where the value is not a percentile).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// host describes where a report was measured. Results are comparable
// only at equal Clients.
type host struct {
	NProc        int    `json:"nproc"`
	Clients      int    `json:"clients"` // C = min(nproc, 4): clients, load-generator and daemon GOMAXPROCS
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	SIMDLevel    string `json:"simd_level"`    // dispatched tier
	SIMDDetected string `json:"simd_detected"` // hardware tier
	LLCBytes     int64  `json:"llc_bytes"`
	LLCSource    string `json:"llc_source"`
	MemBytes     int64  `json:"mem_bytes"`
	Commit       string `json:"commit"`
	Seed         int64  `json:"seed"`
}

// runResult is one untraced run of one workload: the end-to-end numbers.
type runResult struct {
	Seed      int64              `json:"seed"`
	Format    string             `json:"format"` // storage format selection chose
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Windows   []window           `json:"windows"`
	Info      map[string]float64 `json:"info,omitempty"` // context, not judged
}

// layerResult is the traced run of one workload: the per-layer numbers,
// among them each layer's share of one operation's blocking path.
type layerResult struct {
	Format    string            `json:"format"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	spans     []span
}

type workloadReport struct {
	Name   string       `json:"name"`
	Why    string       `json:"why"`
	Runs   []runResult  `json:"runs"`
	Layers *layerResult `json:"layers,omitempty"`
}

type report struct {
	Host      host             `json:"host"`
	Seconds   float64          `json:"seconds"` // timed phase per run
	Workloads []workloadReport `json:"workloads"`
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// values collects one metric over the workload's runs.
func (w *workloadReport) values(name string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// formats names the distinct formats the workload's runs chose.
func (w *workloadReport) formats() string {
	seen := map[string]bool{}
	for _, r := range w.Runs {
		seen[r.Format] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// clientCount is the load model's C.
func clientCount() int { return min(runtime.NumCPU(), 4) }

func describeHost(root string, seed int64) host {
	h := host{
		NProc:        runtime.NumCPU(),
		Clients:      clientCount(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		SIMDLevel:    simd.Level(),
		SIMDDetected: simd.DetectedLevel(),
		MemBytes:     memTotalBytes(),
		Commit:       commitOf(root),
		Seed:         seed,
	}
	h.LLCBytes, h.LLCSource = llcBytes()
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// parseSize reads sysfs cache sizes such as "32768K" or "260M".
func parseSize(s string) int64 {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// llcBytes reads the last-level cache size the kernel reports for cpu0:
// index3 when present, else the highest cache index. Hosts without the
// sysfs tree get an assumed 32 MiB, labelled as such.
func llcBytes() (int64, string) {
	const dir = "/sys/devices/system/cpu/cpu0/cache"
	for i := 3; i >= 0; i-- {
		p := filepath.Join(dir, "index"+strconv.Itoa(i), "size")
		if data, err := os.ReadFile(p); err == nil {
			if n := parseSize(string(data)); n > 0 {
				return n, p
			}
		}
	}
	return 32 << 20, "assumed"
}

// procKB reads a "Key:   12345 kB" line of a /proc file; 0 if absent.
func procKB(path, key string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

func memTotalBytes() int64 { return procKB("/proc/meminfo", "MemTotal") << 10 }

// commitOf names the commit of the tree under test, or "unknown" outside
// a git checkout. GIT_CEILING_DIRECTORIES keeps git from adopting a
// repository above root.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetric(w io.Writer, name string, m metric) {
	fmt.Fprintf(w, "  %-32s %14.4f %-8s", name, m.Value, m.Unit)
	if m.N > 0 {
		fmt.Fprintf(w, " (n=%d)", m.N)
	}
	fmt.Fprintln(w)
}

// printReport writes every metric by name with its unit.
func printReport(w io.Writer, r *report) {
	h := r.Host
	fmt.Fprintf(w, "host: %s, nproc %d, C=%d clients (GOMAXPROCS, daemon cap), %s, simd %s (detected %s), LLC %d B (%s), commit %s, seed %d, timed phase %.1fs, end-to-end metrics at each workload's nominal host speed\n",
		h.CPUModel, h.NProc, h.Clients, h.GoVersion, h.SIMDLevel, h.SIMDDetected, h.LLCBytes, h.LLCSource, h.Commit, h.Seed, r.Seconds)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", wl.Name, wl.Why)
		if f := wl.formats(); strings.Contains(f, "|") {
			fmt.Fprintf(w, "  FLAGGED: runs chose different formats (%s); do not compare them\n", f)
		}
		for i, run := range wl.Runs {
			fmt.Fprintf(w, " run %d (seed %d, format %s, attempted %d, failed %d)\n", i+1, run.Seed, run.Format, run.Attempted, run.Failed)
			for _, name := range sortedKeys(run.Metrics) {
				printMetric(w, name, run.Metrics[name])
			}
			for _, name := range sortedKeys(run.Info) {
				fmt.Fprintf(w, "  %-32s %14.4f (context)\n", name, run.Info[name])
			}
		}
		if l := wl.Layers; l != nil {
			fmt.Fprintf(w, " traced run (format %s, attempted %d, failed %d)\n", l.Format, l.Attempted, l.Failed)
			for _, name := range sortedKeys(l.Metrics) {
				printMetric(w, name, l.Metrics[name])
			}
			for _, n := range l.Notes {
				fmt.Fprintf(w, "  note: %s\n", n)
			}
		}
	}
}
