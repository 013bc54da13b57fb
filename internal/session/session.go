// Package session is the one owner of the selection subsystem's mutable
// state: the decision cache, the disk journal behind it, the
// online-learned experience base the decisions' samples feed, and the
// execution-context shard count recorded in decision keys. A Session
// holds real instances of all of them in one selector.State and hands
// that state to every build it runs; internal/selector and internal/cache
// keep no package-level state of their own.
//
// Two sessions share nothing: decisions — their tunings and learned
// samples with them — made under one are invisible to every other, in
// memory and on disk, so concurrent hosts (one server registry per journal, tests,
// multi-tenant embedders) never fight over a journal.
//
// The process-wide default session (Default) is an ordinary Session,
// opened once on $SPMV_CACHE_DIR (memory-only without it). The spmv
// facade's package-level Auto, NewUpdatable, SetCacheDir and
// UnsetCacheDir are one-line delegates to it.
package session

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
	"repro/internal/topo"
	"repro/internal/update"
)

// Options configures a Session.
type Options struct {
	// CacheDir is the journal directory for persistent decisions. Empty
	// means memory-only: the session still has its own isolated decision
	// cache and experience base, but nothing touches disk.
	CacheDir string
	// K is the default right-hand-side regime hint for Auto builds under
	// this session (0 or 1: single-vector SpMV).
	K int
	// Probe lets Auto builds micro-probe their shortlist by default.
	Probe bool
	// Shards overrides the execution-context shard count recorded in this
	// session's decision keys (0: the live topo.Shards()). The engine's
	// pool layout itself is process-wide hardware state.
	Shards int
}

// Session is one isolated selection context. All methods are safe for
// concurrent use.
type Session struct {
	opts Options
	// state is what every build under this session consults and feeds. Its
	// members are fixed for the session's lifetime; the journal attaches to
	// and detaches from the caches inside it.
	state selector.State

	mu sync.Mutex // serializes Persist and Close
}

// New opens a session. With a CacheDir, the journal is opened (creating
// the directory as needed), existing decisions warm-load into the
// session's cache and the samples they carry replay into its learned base:
// prior decisions resolve with zero probes and zero tune sweeps after a
// restart.
func New(o Options) (*Session, error) {
	s := &Session{
		opts: o,
		state: selector.State{
			Cache:   cache.NewDecisionCache(),
			Learned: selector.NewLearned(),
			Shards:  o.Shards,
		},
	}
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
func (s *Session) Cache() *cache.DecisionCache { return s.state.Cache }

// Learned returns the session's experience base.
func (s *Session) Learned() *selector.Learned { return s.state.Learned }

// Store returns the session's journal, or nil when memory-only.
func (s *Session) Store() *cache.Store { return s.state.Cache.Store() }

// Shards returns the execution-context shard count recorded in this
// session's decision keys: the session override when set, else the live
// engine topology.
func (s *Session) Shards() int {
	if s.state.Shards > 0 {
		return s.state.Shards
	}
	return topo.Shards()
}

// autoOptions scopes o to this session: its state is the build's state,
// and the session's default K/Probe fill unset fields.
func (s *Session) autoOptions(o selector.AutoOptions) selector.AutoOptions {
	if o.K == 0 {
		o.K = s.opts.K
	}
	if !o.Probe {
		o.Probe = s.opts.Probe
	}
	o.State = &s.state
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
	o.K, o.Probe, o.State = a.K, a.Probe, a.State
	return update.New(m, o)
}

// Persist binds the session to the journal in dir (opened, created as
// needed): the decision cache warm-loads and journals through it, and the
// experience base is re-baselined to the samples its decisions carry
// (reset, then replayed — re-invoking Persist, or switching directories, must not
// stack a second copy of every sample into the k-NN vote). An empty dir
// resolves the default location (SPMV_CACHE_DIR, then the user cache dir —
// see cache.Dir). A journal already attached is closed.
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
	st, err := cache.Open(dir)
	if err != nil {
		return fmt.Errorf("session: open journal: %w", err)
	}
	// Attach the new store BEFORE closing the old: a concurrent Put must
	// never land on an already-closed handle (its append would be dropped
	// without error).
	old := s.Store()
	s.state.Cache.AttachStore(st)
	if old != nil {
		old.Close()
	}
	s.state.Learned.Reset()
	s.state.Learned.WarmLoad(st)
	return nil
}

// Close detaches and closes the session's journal, if any. The session's
// in-memory cache and experience stay usable (memory-only) afterwards,
// and a later Persist re-attaches.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.Store()
	if st == nil {
		return nil
	}
	s.state.Cache.AttachStore(nil)
	return st.Close()
}
