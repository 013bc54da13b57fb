package spmv

import (
	"repro/internal/session"
	"repro/internal/topo"
)

// Session is the one owner of selection state: its own decision cache
// (a decision carries its tuning and its learned sample), the journal
// behind it, and the online-learned experience base it feeds, plus a
// default (k, probe, shards) context for Auto builds. Two sessions share
// nothing, so concurrent hosts — one server registry per journal,
// multi-tenant embedders, tests — never fight over a journal.
//
//	sess, err := spmv.NewSession(spmv.SessionOptions{CacheDir: dir, K: 8})
//	defer sess.Close()
//	f, err := sess.Auto(m, spmv.AutoOptions{Probe: true})
//
// The package-level Auto, NewUpdatable, SetCacheDir and UnsetCacheDir are
// one-line delegates to the default session (DefaultSession), which is an
// ordinary Session opened on $SPMV_CACHE_DIR.
type Session = session.Session

// SessionOptions configures NewSession.
type SessionOptions = session.Options

// NewSession opens an isolated selection session. With CacheDir set, the
// session's journal opens there directly (creating the directory as
// needed) and warm-loads: prior decisions resolve with zero probes and
// zero tune sweeps, and the samples they carry seed the session's
// experience base. An empty CacheDir
// gives a memory-only session. Close releases the journal handle.
func NewSession(o SessionOptions) (*Session, error) { return session.New(o) }

// DefaultSession returns the process-wide default session — the state the
// package-level facade functions operate on (its decision cache and
// experience base, the SetCacheDir journal, the live SetShards/topology shard
// count). Useful where a *Session is expected and should share the
// process journal, e.g. a server registry.
func DefaultSession() *Session { return session.Default() }

// SetShards overrides the execution-pool shard count process-wide; n <= 0
// removes the override, restoring the SPMV_SHARDS / detected-topology
// default. Returns the previous override (0 if none). This is engine
// layout, not selection state: every multiply observes it, and so does
// the decision key of every session without its own shard context.
// Callers needing a scoped shard context without flipping the process
// should record it in a Session (SessionOptions.Shards) instead.
func SetShards(n int) int { return topo.SetShards(n) }

// Shards returns the execution-pool shard count currently in effect:
// the SetShards override, else SPMV_SHARDS, else the detected topology
// domain count.
func Shards() int { return topo.Shards() }
