package cache

// Disk persistence for the selection subsystem: an append-only, versioned
// JSONL journal of decisions — the one record kind besides the header — so
// a restarted server resumes with everything previous processes measured
// (formats, k-NN samples) instead of re-ranking and re-probing every
// matrix.
//
// Design constraints, in order:
//
//   - Crash safety over completeness. Records append one line at a time
//     with O_APPEND writes; a torn final line loses one record, never the
//     journal. Compaction writes a fresh temp file and renames it over the
//     old one atomically.
//   - Corruption tolerance. Load skips anything it cannot parse — torn
//     lines, garbage, records from a different schema version — and keeps
//     going. A damaged journal degrades to a smaller one; it never takes
//     the cache down and never fails a Build.
//   - Invalidation by key, not by trust. A header line pins the schema
//     version and a host fingerprint (OS/arch/CPU count). A journal written
//     by a different schema or machine is discarded wholesale: decisions
//     are measurements, and measurements from different hardware are not
//     evidence here.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/simd"
)

const (
	// SchemaVersion is the journal schema. Records carrying a different
	// version are skipped on load; a header carrying a different version
	// invalidates the whole journal.
	SchemaVersion = 2

	// EnvCacheDir overrides the journal directory without code changes.
	EnvCacheDir = "SPMV_CACHE_DIR"

	// journalName is the journal file inside the cache directory.
	journalName = "decisions.jsonl"

	// lockName is the sidecar flock file serializing cross-process journal
	// mutation (appends and compactions) among cooperating spmv processes.
	lockName = "decisions.lock"

	// compactDeadMin is how many superseded (dead) journal lines accumulate
	// before an append triggers an automatic compaction.
	compactDeadMin = 1024

	// maxForeignLines bounds how many other-level records a load carries
	// through compactions for the runs that can use them; overflow becomes
	// dead weight.
	maxForeignLines = 4096
)

// RemoveJournal deletes the journal file in dir — the cold-start switch.
// A missing journal is not an error.
func RemoveJournal(dir string) error {
	err := os.Remove(filepath.Join(dir, journalName))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// Dir resolves the default journal directory: the SPMV_CACHE_DIR
// environment variable, then <user cache dir>/go-spmv.
func Dir() (string, error) {
	if env := os.Getenv(EnvCacheDir); env != "" {
		return env, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("cache: no user cache dir: %w", err)
	}
	return filepath.Join(base, "go-spmv"), nil
}

// HostFingerprint identifies the machine context a journal's measurements
// belong to — including the usable parallelism (GOMAXPROCS), because the
// host device model and every micro-probe run at that width: a decision
// probed under 2 workers is not evidence about a 32-worker process even
// on the same chip. The SIMD component is the *detected* hardware tier,
// not the dispatched one: a run capped with SPMV_SIMD_LEVEL=avx2 on an
// AVX-512 box is still the same machine, and its journal must not be
// invalidated wholesale when the next run lifts the cap. The cap's effect
// travels per record instead — every decision line carries the dispatch
// level it was measured under (simd.Level()), and load filters
// records from other levels without discarding them.
func HostFingerprint() string {
	return fmt.Sprintf("%s/%s/cpu%d/p%d/%s", runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), simd.DetectedLevel())
}

// record is one JSONL journal line. Kind selects which fields are live:
// "header" pins schema+host, "decision" carries a DecisionKey/Decision
// pair. Decisions carry the dispatch level they were measured under
// (Lvl); load keeps only the current level's. Older schema-2 decision lines
// may also carry a "shards" or a "tuned" field (the latter from builds that
// autotuned BCSR blocks and SpMM tiles): load ignores both, so lines that
// differ only there are one key, the newest winning, and compaction drops
// the fields.
type record struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Lvl  string `json:"lvl,omitempty"`

	// header
	Schema int    `json:"schema,omitempty"`
	Host   string `json:"host,omitempty"`

	// decision
	FP     uint64              `json:"fp,omitempty"`
	Device string              `json:"device,omitempty"`
	K      int                 `json:"k,omitempty"`
	Format string              `json:"format,omitempty"`
	Probed bool                `json:"probed,omitempty"`
	FV     *core.FeatureVector `json:"fv,omitempty"` // the sample; absent without one
}

func headerRecord() record {
	return record{V: SchemaVersion, Kind: "header", Schema: SchemaVersion, Host: HostFingerprint()}
}

func decisionRecord(lvl string, k DecisionKey, d Decision) record {
	r := record{
		V: SchemaVersion, Kind: "decision", Lvl: lvl,
		FP: k.Fingerprint, Device: k.Device, K: k.K,
		Format: d.Format, Probed: d.Probed,
	}
	if d.FV != (core.FeatureVector{}) {
		r.FV = &d.FV
	}
	return r
}

// decision is decisionRecord's inverse.
func (r record) decision() (DecisionKey, Decision) {
	d := Decision{Format: r.Format, Probed: r.Probed}
	if r.FV != nil {
		d.FV = *r.FV
	}
	return DecisionKey{Fingerprint: r.FP, Device: r.Device, K: r.K}, d
}

// line renders the record as one newline-terminated JSONL line.
func (r record) line() ([]byte, error) {
	b, err := json.Marshal(r)
	return append(b, '\n'), err
}

// StoreStats is a point-in-time summary of a journal, for CLI -json output.
type StoreStats struct {
	Path        string // journal file path
	Decisions   int    // live decisions the attached cache took from the load
	Foreign     int    // other-level records carried, not evidence here
	Appended    int    // records appended by this process
	Dead        int    // superseded lines awaiting compaction
	Invalidated bool   // open discarded a journal from another schema/host
	Skipped     int    // unparseable or foreign-version lines skipped at load

	// Degraded reports that an I/O failure (ENOSPC, torn rename, flock
	// error, unusable directory) switched the store to memory-only:
	// decisions keep serving from the cache, nothing further touches disk,
	// and DegradedReason records the first failure. The journal file on
	// disk is left as the last successful write shaped it.
	Degraded       bool
	DegradedReason string
}

// Store is the file side of an open journal: the append handle, the
// cross-process lock, the other levels' lines and the counters. The
// decisions themselves live in the DecisionCache the store is attached
// to, which takes the ones Open loaded and compacts from its own. A Store
// is safe for concurrent use within one process. Cross-process sharing is
// best-effort, two layers deep: O_APPEND keeps individual line writes
// intact (each record is one write call well under the pipe-atomicity
// bound), and an advisory flock on a sidecar lock file serializes loads,
// appends and compactions among cooperating processes — with an inode
// check before every append re-targeting the handle after another process
// compacted (renamed over) the journal, so post-compaction appends land in
// the live file instead of the unlinked inode. A compaction still rewrites
// from the compactor's cache: lines another process appended between that
// compactor's Open and its rewrite are dropped (their in-memory copy
// survives; its next process re-journals what it re-measures). On
// filesystems without flock the lock degrades to a no-op and only the
// O_APPEND guarantee remains.
type Store struct {
	mu   sync.Mutex
	path string
	f    *os.File
	lock *os.File // sidecar flock handle; nil when unavailable

	// pending holds this level's decision lines as Open loaded them, in
	// file order, until the attaching DecisionCache takes them.
	pending []record

	// lvl is the dispatch level this store's records are evidence for,
	// simd.Level() at Open (a ranking probed at one tier is not evidence
	// at another); foreign holds raw lines from other levels, skipped on
	// load but rewritten by compaction.
	lvl     string
	foreign [][]byte

	dead        int // superseded or evicted lines in the file
	appended    int
	loaded      int
	headerOK    bool // a valid local header already leads the file
	invalidated bool
	skipped     int

	// degradedReason, when non-empty, records the first I/O failure that
	// switched the store to memory-only (see StoreStats.Degraded). Sticky:
	// a degraded store never touches disk again for its lifetime; the next
	// process re-opens and re-journals what it re-measures.
	degradedReason string
}

// degradeLocked switches the store to memory-only after an I/O failure:
// the append handle closes, the first failure is recorded, and every
// later append or compaction becomes a silent no-op while the attached
// cache keeps serving. Persistence is an accelerator — a full disk, a
// torn rename, or a broken lock must cost the journal, never a Build or a
// multiply. Callers hold s.mu.
func (s *Store) degradeLocked(op string, err error) {
	if s.degradedReason != "" {
		return
	}
	s.degradedReason = fmt.Sprintf("%s: %v", op, err)
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// Degraded reports whether an I/O failure switched the store to
// memory-only, and the recorded reason.
func (s *Store) Degraded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degradedReason != "", s.degradedReason
}

// Open opens (creating if needed) the journal in dir, loads every record it
// can parse for DecisionCache.Attach to take, and leaves the file
// positioned for appends. The load is corruption-tolerant: bad lines are
// skipped, a schema or host-fingerprint mismatch discards the journal's
// contents and starts it fresh. Open never fails: an unusable directory or
// journal file returns a memory-only store whose Stats record the
// DegradedReason — selection keeps its in-process cache and loses only
// persistence.
func Open(dir string) *Store {
	path := filepath.Join(dir, journalName)
	s := &Store{path: path, lvl: simd.Level()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.degradeLocked("create dir", err)
		return s
	}
	// Best-effort cross-process lock: held across the load and the initial
	// header/compaction so Open never reads a half-compacted journal from a
	// concurrent process. An unopenable lock file just disables locking.
	s.lock, _ = os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	unlock := s.flock()
	defer unlock()
	s.load(path)
	if s.degradedReason != "" {
		// The flock failed: what was loaded serves from memory, but this
		// store must not mutate a journal it cannot serialize access to.
		return s
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.degradeLocked("open journal", err)
		return s
	}
	s.f = f
	if s.invalidated {
		// Rewrite in place: drop the foreign-host/schema lines before this
		// process starts appending after them. Mere dead weight does NOT
		// compact at open: a second handle on a live journal (stats
		// readers, a test's restart simulation) must never rename the file
		// out from under the owning appender — dead-weight compaction runs
		// on append, where the owner holds the pen.
		// A failed rewrite degrades the store (inside compactLocked).
		_ = s.compactLocked(nil, nil)
	} else if !s.headerOK {
		// Fresh journal: pin schema and host before the first record.
		s.appendLocked(headerRecord())
	}
	return s
}

// load reads the journal once, collecting this level's decision lines in
// file order. Never fails: an unreadable file is an empty journal.
func (s *Store) load(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	headerSeen := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			s.skipped++
			continue
		}
		switch {
		case r.Kind == "header":
			if headerSeen {
				continue
			}
			headerSeen = true
			if r.Schema != SchemaVersion || r.Host != HostFingerprint() {
				// Foreign journal: forget everything read so far and ignore
				// the rest (counted, for StoreStats only); Open rewrites the
				// file.
				s.pending, s.foreign = nil, nil
				s.invalidated = true
				for sc.Scan() {
					s.skipped++
				}
				return
			}
			s.headerOK = true
		case r.V != SchemaVersion:
			s.skipped++
		case r.Lvl != s.lvl:
			// Same machine, different dispatch level (a capped run's
			// records, or this run reading an uncapped journal): not
			// evidence here, but live for the run that measured them —
			// carried through compactions verbatim, bounded.
			if len(s.foreign) < maxForeignLines {
				s.foreign = append(s.foreign, append([]byte(nil), line...))
			} else {
				s.dead++
			}
		case r.Kind == "decision":
			s.pending = append(s.pending, r)
		default:
			s.skipped++
		}
	}
	// A scanner error (torn tail, over-long line) just ends the load early.
}

// take hands the loaded decision lines to the attaching cache, once: the
// store keeps no copy.
func (s *Store) take() []record {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending
	s.pending = nil
	return p
}

// loadedAs records what the attaching cache made of the loaded lines: how
// many live decisions they held and how many lines were dead weight.
func (s *Store) loadedAs(live, dead int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loaded = live
	s.dead += dead
}

// appendDecision journals one decision the cache changed, counting dead
// the lines of the decisions it displaced.
func (s *Store) appendDecision(k DecisionKey, d Decision, displaced int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead += displaced
	s.appendLocked(decisionRecord(s.lvl, k, d))
}

// needsCompact reports whether enough dead lines have accumulated that
// the attached cache should compact.
func (s *Store) needsCompact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead >= compactDeadMin
}

// appendLocked writes one record as a single JSONL line. A write failure
// (ENOSPC, closed filesystem, injected fault) never propagates: persistence
// is an accelerator, and a full disk must not fail a Build — the store
// degrades to memory-only instead, recording the reason. Callers hold s.mu.
func (s *Store) appendLocked(r record) {
	if s.f == nil {
		return
	}
	b, err := r.line()
	if err != nil {
		return
	}
	unlock := s.flock()
	defer unlock()
	if s.f == nil {
		return // a flock failure degraded the store mid-call
	}
	if err := failpoint.Inject("cache.append"); err != nil {
		s.degradeLocked("append", err)
		return
	}
	s.refreshHandleLocked()
	if _, err := s.f.Write(b); err != nil {
		s.degradeLocked("append", err)
		return
	}
	if r.Kind != "header" {
		s.appended++
	}
}

// flock takes the cross-process journal lock (blocking, best-effort) and
// returns its release func. flock on an already-held descriptor is a
// harmless no-op conversion, so nested acquisitions (Open's header write
// and invalidation rewrite) are safe — the inner release just
// drops the lock a little early. An flock *error* (not mere absence of the
// lock file) means journal mutation can no longer be serialized against
// other processes, so the store stops mutating the journal: it degrades to
// memory-only rather than risk interleaving a compaction with a foreign
// writer. Callers hold s.mu.
func (s *Store) flock() func() {
	if s.lock == nil {
		return func() {}
	}
	err := failpoint.Inject("cache.flock")
	if err == nil {
		err = flockExclusive(s.lock)
	}
	if err != nil {
		s.degradeLocked("flock", err)
		return func() {}
	}
	return func() { flockUnlock(s.lock) }
}

// refreshHandleLocked re-targets the append handle after another process
// compacted the journal: a rename-over leaves this handle on the unlinked
// inode, where appends would vanish. Comparing the path's inode with the
// handle's (os.SameFile) detects that and reopens. Callers hold s.mu and
// the cross-process lock.
func (s *Store) refreshHandleLocked() {
	pi, err := os.Stat(s.path)
	if err != nil {
		return
	}
	fi, err := s.f.Stat()
	if err == nil && os.SameFile(pi, fi) {
		return
	}
	if nf, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		s.f.Close()
		s.f = nf
	}
}

// compact rewrites the journal to hold exactly the given decisions, in
// order: a fresh header and every decision (plus the other levels' lines,
// carried verbatim). The rewrite is atomic (temp file + rename), so a crash
// mid-compaction leaves the old journal intact. A failed compaction
// degrades the store to memory-only (the on-disk journal stays as the last
// successful write left it); on a store already degraded compact is a
// no-op.
func (s *Store) compact(order []DecisionKey, m map[DecisionKey]Decision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(order, m)
}

// compactLocked runs the rewrite and folds any failure into degradation.
// Callers hold s.mu.
func (s *Store) compactLocked(order []DecisionKey, m map[DecisionKey]Decision) error {
	if s.f == nil {
		return nil // memory-only: nothing on disk this store may rewrite
	}
	if err := s.rewriteLocked(order, m); err != nil {
		s.degradeLocked("compact", err)
		return err
	}
	return nil
}

func (s *Store) rewriteLocked(order []DecisionKey, m map[DecisionKey]Decision) error {
	unlock := s.flock()
	defer unlock()
	if s.f == nil {
		return nil // a flock failure degraded the store mid-call
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.path), journalName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp) // its first write error is sticky: Flush reports it
	b, err := headerRecord().line()
	w.Write(b)
	for _, k := range order {
		if err != nil {
			break
		}
		b, err = decisionRecord(s.lvl, k, m[k]).line()
		w.Write(b)
	}
	// Other-level records ride along verbatim: they are live evidence for
	// the (capped or uncapped) run that measured them.
	for _, raw := range s.foreign {
		w.Write(raw)
		w.WriteByte('\n')
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	// Torn-rename injection point: the temp file is complete and synced,
	// the rename never happens. The defer above removes the temp; the old
	// journal stays intact on disk.
	if err == nil {
		err = failpoint.Inject("cache.rename")
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path)
	}
	if err != nil {
		return err
	}
	// Reopen the append handle on the new file.
	s.f.Close()
	s.f, err = os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f = nil
		return err
	}
	s.dead = 0
	s.headerOK = true
	// s.invalidated stays: it is the sticky "this open discarded a foreign
	// journal" report, not a live state flag.
	return nil
}

// Stats summarizes the journal for reports and CLI -json output.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Path:           s.path,
		Decisions:      s.loaded,
		Foreign:        len(s.foreign),
		Appended:       s.appended,
		Dead:           s.dead,
		Invalidated:    s.invalidated,
		Skipped:        s.skipped,
		Degraded:       s.degradedReason != "",
		DegradedReason: s.degradedReason,
	}
}

// Path returns the journal file path.
func (s *Store) Path() string { return s.path }

// Close flushes nothing (appends are unbuffered) and releases the file
// handle. A closed store drops further appends silently.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock != nil {
		s.lock.Close() // releases any held flock with the descriptor
		s.lock = nil
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if errors.Is(err, os.ErrClosed) {
		return nil
	}
	return err
}
