package spmv

import "repro/internal/session"

// Session is the one owner of selection state: its own decision cache (a
// decision carries the sample the k-NN vote reads) and the journal behind
// it, plus a default (k, probe) context for Auto builds. Two sessions share
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
// needed) and loads: prior decisions resolve with zero probes, and the
// samples they carry vote. An empty CacheDir
// gives a memory-only session. Close releases the journal handle.
func NewSession(o SessionOptions) (*Session, error) { return session.New(o) }

// DefaultSession returns the process-wide default session — the state the
// package-level facade functions operate on (its decision cache and the
// SetCacheDir journal). Useful where a *Session is
// expected and should share the process journal, e.g. a server registry.
func DefaultSession() *Session { return session.Default() }
