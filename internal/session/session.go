// Package session is the one owner of the selection subsystem's mutable
// state: the decision cache — which holds every decision, the samples the
// k-NN vote reads among them — and the disk journal behind it. A Session
// holds one cache and hands it to every build it runs; internal/selector
// and internal/cache keep no package-level state of their own.
//
// Two sessions share nothing: decisions — and the samples they carry —
// made under one are invisible to every other, in memory and on
// disk, so concurrent hosts (one server registry per journal, tests,
// multi-tenant embedders) never fight over a journal.
//
// The process-wide default session (Default) is an ordinary Session,
// opened once on $SPMV_CACHE_DIR (memory-only without it). The spmv
// facade's package-level Auto, NewUpdatable, SetCacheDir and
// UnsetCacheDir are one-line delegates to it.
package session

import (
	"context"
	"os"
	"sync"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/update"
)

// Options configures a Session.
type Options struct {
	// CacheDir is the journal directory for persistent decisions. Empty
	// means memory-only: the session still has its own isolated decision
	// cache, but nothing touches disk.
	CacheDir string
	// K is the default right-hand-side regime hint for Auto builds under
	// this session (0 or 1: single-vector SpMV).
	K int
	// Probe lets Auto builds micro-probe their shortlist by default.
	Probe bool
}

// Session is one isolated selection context. All methods are safe for
// concurrent use.
type Session struct {
	opts Options
	// cache is what every build under this session consults and feeds,
	// fixed for the session's lifetime; the journal attaches to and
	// detaches from it.
	cache *cache.DecisionCache

	mu sync.Mutex // serializes Persist and Close
}

// New opens a session. With a CacheDir, the journal is opened (creating
// the directory as needed) and its decisions load into the session's
// cache: prior decisions resolve with zero probes after a restart, and the
// samples they carry vote.
func New(o Options) (*Session, error) {
	s := &Session{opts: o, cache: cache.NewDecisionCache()}
	if o.CacheDir != "" {
		if err := s.Persist(o.CacheDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var (
	defOnce sync.Once
	defSess *Session
)

// Default returns the process-wide default session — the state the spmv
// facade's package-level functions operate on. It is opened on first use:
// with SPMV_CACHE_DIR set it journals there (persistence with zero code
// changes), without it nothing touches disk until Persist is called.
func Default() *Session {
	defOnce.Do(func() { defSess = newDefault(os.Getenv(cache.EnvCacheDir)) })
	return defSess
}

// newDefault opens the default session on dir. Best-effort: an unusable
// directory only costs persistence, never the session.
func newDefault(dir string) *Session {
	s, err := New(Options{CacheDir: dir})
	if err != nil {
		s, _ = New(Options{})
	}
	return s
}

// Cache returns the session's decision cache.
func (s *Session) Cache() *cache.DecisionCache { return s.cache }

// Store returns the session's journal, or nil when memory-only.
func (s *Session) Store() *cache.Store { return s.cache.Store() }

// autoOptions scopes o to this session: its cache is the build's cache,
// and the session's default K/Probe fill unset fields.
func (s *Session) autoOptions(o selector.AutoOptions) selector.AutoOptions {
	if o.K == 0 {
		o.K = s.opts.K
	}
	if !o.Probe {
		o.Probe = s.opts.Probe
	}
	o.Cache = s.cache
	return o
}

// Auto selects and builds a format under this session's state; see
// selector.BuildAuto.
func (s *Session) Auto(m *matrix.CSR, o selector.AutoOptions) (*formats.Auto, error) {
	return selector.BuildAuto(m, s.autoOptions(o))
}

// AutoCtx is Auto honoring a context.
func (s *Session) AutoCtx(ctx context.Context, m *matrix.CSR, o selector.AutoOptions) (*formats.Auto, error) {
	return selector.BuildAutoCtx(ctx, m, s.autoOptions(o))
}

// NewUpdatable wraps m in a concurrently updatable form whose base
// selection — the initial build and every compaction's re-selection —
// runs under this session's state; see update.New.
func (s *Session) NewUpdatable(m *matrix.CSR, o update.Options) (*update.Updatable, error) {
	a := s.autoOptions(selector.AutoOptions{K: o.K, Probe: o.Probe})
	o.K, o.Probe, o.Cache = a.K, a.Probe, a.Cache
	return update.New(m, o)
}

// Persist binds the session to the journal in dir (opened, created as
// needed): its decisions load into the session's cache, the decisions the
// session already held are put over them and journaled, and every later
// one appends (cache.DecisionCache.Attach) — so the session holds what a
// fresh one opened on dir would, and re-invoking Persist stacks nothing.
// An empty dir resolves the default location (SPMV_CACHE_DIR, then the
// user cache dir — see cache.Dir). A journal already attached is closed
// once the new one is in place, so a concurrent Put never lands on a
// closed handle.
func (s *Session) Persist(dir string) error {
	if dir == "" {
		d, err := cache.Dir()
		if err != nil {
			return err
		}
		dir = d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.cache.Attach(cache.Open(dir)); old != nil {
		old.Close()
	}
	return nil
}

// Close detaches and closes the session's journal, if any. The session's
// cache stays usable (memory-only) afterwards, and a later Persist
// re-attaches.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.cache.Attach(nil); st != nil {
		return st.Close()
	}
	return nil
}
