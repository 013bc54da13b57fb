package serve

import "time"

// Config is the daemon's configuration. Each setting has one source: the
// spmv-serve flag of the same meaning, whose default is DefaultConfig's.
type Config struct {
	// Addr is the listen address (host:port; ":0" picks a free port and
	// the daemon prints the bound address).
	Addr string
	// Window is the coalescing window armed by the first request of a
	// batch; 0 disables batching (every request runs alone).
	Window time.Duration
	// MaxBatch flushes a batch early when it gathers this many requests.
	MaxBatch int
	// CacheDir is the selection journal directory; empty is memory-only.
	CacheDir string
	// K is the default right-hand-side regime hint for uploads.
	K int
	// Probe lets uploads micro-probe the selection shortlist by default.
	Probe bool
	// DrainTimeout bounds graceful shutdown: past it, in-flight kernels
	// are cancelled and waiters get the typed cancellation.
	DrainTimeout time.Duration
}

// DefaultConfig returns the built-in defaults.
func DefaultConfig() Config {
	return Config{
		Addr:         ":8097",
		Window:       DefaultWindow,
		MaxBatch:     DefaultMaxBatch,
		DrainTimeout: 5 * time.Second,
	}
}
