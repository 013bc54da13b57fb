// Package failpoint is a zero-cost-when-disabled fault-injection
// framework: named sites in the production code (exec dispatch, journal
// appends, journal compaction, MatrixMarket reads, update rebuilds) call
// Inject, which returns nil until a test or operator arms the site.
//
// The disabled fast path is one atomic bool load — no map probe, no
// allocation, no lock — so sites can sit on dispatch boundaries of hot
// code (never inside kernel inner loops) without measurable cost; the CI
// bench-smoke A/B gate pins that cost at or below 2%.
//
// Activation has two layers. The framework arms when the SPMV_FAILPOINTS
// environment variable is non-empty or a test calls SetEnabled(true);
// individual sites then fire according to their spec, set either
// programmatically (Enable) or parsed from the variable itself:
//
//	SPMV_FAILPOINTS="1"                          // framework armed, no sites
//	SPMV_FAILPOINTS="cache.append=error"         // fail every journal append
//	SPMV_FAILPOINTS="exec.worker=panic*1,cache.append=enospc%50"
//
// Each site spec is action[:arg][*count][%percent]:
//
//	error        return ErrInjected
//	enospc       return a wrapped syscall.ENOSPC
//	panic        panic with an *Injected value (exec containment converts
//	             lane panics into errors on the grant)
//	sleep:MS     sleep MS milliseconds, return nil (latency injection)
//	*N           fire at most N times, then the site disarms
//	%P           fire with probability P percent per evaluation
//
// Sites are identified by stable dotted names; the site table in
// docs/ARCHITECTURE.md ("The robustness layer") lists every name the
// codebase currently declares. The chaos suite drives random schedules of
// these specs under -race.
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// EnvFailpoints arms the framework (and optionally configures sites)
// without code changes.
const EnvFailpoints = "SPMV_FAILPOINTS"

// ErrInjected is the sentinel every injected error wraps; callers assert
// provenance with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// Injected is the concrete injected fault: the site that fired and the
// underlying error it simulates (ErrInjected itself for plain "error"
// actions, syscall.ENOSPC for "enospc", ...). Panic actions panic with an
// *Injected so recover sites can recognize synthetic faults.
type Injected struct {
	Site string
	Err  error
}

// Error implements error.
func (e *Injected) Error() string { return fmt.Sprintf("failpoint %s: %v", e.Site, e.Err) }

// Unwrap exposes the simulated underlying error to errors.Is/As chains.
func (e *Injected) Unwrap() error { return e.Err }

// action is what a site does when it fires.
type action int

const (
	actError action = iota
	actENOSPC
	actPanic
	actSleep
)

// site is one armed failpoint.
type site struct {
	act     action
	sleepMs int
	pct     int          // fire probability in percent; 0 or 100 = always
	left    atomic.Int64 // remaining firings; negative = unlimited
	fired   atomic.Uint64
}

var (
	// enabled is the framework master switch; the Inject fast path loads
	// only this.
	enabled atomic.Bool

	mu    sync.Mutex
	sites map[string]*site

	// rngMu guards rng; probability evaluation is far off any fast path.
	rngMu sync.Mutex
	rng   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func init() {
	if v := os.Getenv(EnvFailpoints); v != "" {
		enabled.Store(true)
		_ = Configure(v)
	}
}

// SetEnabled arms or disarms the framework (tests and chaos drivers);
// returns the previous state. Disarming leaves site specs in place but
// inert.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Configure parses an SPMV_FAILPOINTS-style spec list and arms each site
// in it. Values without '=' ("1", "on") arm the framework with no sites.
// Unparseable entries are reported, not fatal: fault injection must never
// take the process down by itself.
func Configure(spec string) error {
	var bad []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" || !strings.Contains(part, "=") {
			continue
		}
		name, sp, _ := strings.Cut(part, "=")
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(sp)); err != nil {
			bad = append(bad, part)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failpoint: unparseable specs: %s", strings.Join(bad, ", "))
	}
	return nil
}

// Enable arms one site with the given action[:arg][*count][%percent] spec.
// Enabling does not flip the framework master switch; call SetEnabled (or
// set SPMV_FAILPOINTS) for sites to actually fire.
func Enable(name, spec string) error {
	if name == "" || spec == "" {
		return fmt.Errorf("failpoint: empty site or spec")
	}
	s := &site{pct: 100}
	s.left.Store(-1)
	rest := spec
	if i := strings.IndexByte(rest, '%'); i >= 0 {
		p, err := strconv.Atoi(rest[i+1:])
		if err != nil || p < 0 || p > 100 {
			return fmt.Errorf("failpoint: bad probability in %q", spec)
		}
		s.pct = p
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '*'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n < 0 {
			return fmt.Errorf("failpoint: bad count in %q", spec)
		}
		s.left.Store(int64(n))
		rest = rest[:i]
	}
	act, arg, _ := strings.Cut(rest, ":")
	switch act {
	case "error":
		s.act = actError
	case "enospc":
		s.act = actENOSPC
	case "panic":
		s.act = actPanic
	case "sleep":
		s.act = actSleep
		ms, err := strconv.Atoi(arg)
		if err != nil || ms < 0 {
			return fmt.Errorf("failpoint: bad sleep duration in %q", spec)
		}
		s.sleepMs = ms
	default:
		return fmt.Errorf("failpoint: unknown action %q", act)
	}
	mu.Lock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	sites[name] = s
	mu.Unlock()
	return nil
}

// Disable disarms one site.
func Disable(name string) {
	mu.Lock()
	delete(sites, name)
	mu.Unlock()
}

// DisableAll disarms every site (chaos rounds reset with it).
func DisableAll() {
	mu.Lock()
	sites = nil
	mu.Unlock()
}

// Fired returns how many times the named site has fired since it was
// armed (0 for unarmed sites).
func Fired(name string) uint64 {
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return 0
	}
	return s.fired.Load()
}

// Inject evaluates the named site. With the framework disarmed (the
// overwhelmingly common case) it is one atomic load and returns nil.
// Armed sites return an injected error, panic, or sleep per their spec.
func Inject(name string) error {
	if !enabled.Load() {
		return nil
	}
	return inject(name)
}

// inject is the armed slow path, kept out of Inject so the fast path
// stays inlinable.
func inject(name string) error {
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return nil
	}
	if s.pct < 100 {
		rngMu.Lock()
		roll := rng.Intn(100)
		rngMu.Unlock()
		if roll >= s.pct {
			return nil
		}
	}
	// Consume one firing; a raced decrement below zero means another
	// evaluation took the last one.
	for {
		left := s.left.Load()
		if left == 0 {
			return nil
		}
		if left < 0 {
			break // unlimited
		}
		if s.left.CompareAndSwap(left, left-1) {
			break
		}
	}
	s.fired.Add(1)
	switch s.act {
	case actError:
		return &Injected{Site: name, Err: ErrInjected}
	case actENOSPC:
		return &Injected{Site: name, Err: fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)}
	case actPanic:
		panic(&Injected{Site: name, Err: ErrInjected})
	case actSleep:
		time.Sleep(time.Duration(s.sleepMs) * time.Millisecond)
	}
	return nil
}
