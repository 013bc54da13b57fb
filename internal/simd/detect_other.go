//go:build !amd64

package simd

// detect is a no-op off amd64: the dispatch table keeps the portable
// scalar references and the package stays in "scalar" mode. Adding a new
// ISA (e.g. NEON) means an arch-specific detect that probes the CPU and
// installs its kernels, exactly like detect_amd64.go.
func detect() {}

// install is a no-op off amd64: there is no tier to cap, the table never
// leaves the scalar references.
func install(string) {}

// The codec's kernels exist on amd64 only: codecAVX512 stays false here.
func scanPlainAVX512(_ *byte, i, _ int, _ *float64, _ int, _ *[2]uint64) (int, int) { return 0, i }
func appendPlainAVX512(*byte, *byte, *uint32, int) int                              { return 0 }
func shortestAVX512(*float64, *byte, *uint32, int, *[24]uint64)                     {}
