package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/simd"
)

// attached opens the journal in dir behind a fresh decision cache — what a
// process starting on it does — and closes the store when the test ends.
func attached(t *testing.T, dir string) (*DecisionCache, *Store) {
	t.Helper()
	st := Open(dir)
	t.Cleanup(func() { st.Close() })
	c := NewDecisionCache()
	c.Attach(st)
	return c, st
}

// tempCache is attached on a fresh directory.
func tempCache(t *testing.T) (*DecisionCache, *Store, string) {
	t.Helper()
	dir := t.TempDir()
	c, st := attached(t, dir)
	return c, st, dir
}

func dk(fp uint64, k int) DecisionKey {
	return DecisionKey{Fingerprint: fp, Device: "host", K: k}
}

// TestStoreRoundTrip: every part of a decision — format, probed flag,
// sample — reloads exactly, in journal order.
func TestStoreRoundTrip(t *testing.T) {
	c, st, dir := tempCache(t)
	for i := 0; i < 20; i++ {
		c.Put(dk(uint64(i), 1+i%3), Decision{Format: fmt.Sprintf("F%d", i), Probed: i%2 == 0})
	}
	full := Decision{
		Format: "SELL-C-s", Probed: true,
		FV: core.FeatureVector{Rows: 100, Cols: 100, NNZ: 1000, AvgNNZPerRow: 10, MemFootprintMB: 0.01},
	}
	c.Put(dk(100, 8), full)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, rs := attached(t, dir)
	keys, decs := re.Decisions()
	if len(keys) != 21 {
		t.Fatalf("reloaded %d decisions, want 21", len(keys))
	}
	for i, k := range keys[:20] {
		want := Decision{Format: fmt.Sprintf("F%d", i), Probed: i%2 == 0}
		if k != dk(uint64(i), 1+i%3) || decs[i] != want {
			t.Errorf("position %d: reloaded %+v %+v, want %+v", i, k, decs[i], want)
		}
	}
	if keys[20] != dk(100, 8) || decs[20] != full {
		t.Errorf("probed, sampled decision reloaded as %+v %+v, want %+v", keys[20], decs[20], full)
	}
	if stats := rs.Stats(); stats.Decisions != 21 || stats.Invalidated {
		t.Errorf("stats = %+v", stats)
	}
}

// TestStoreCorruptionTolerance covers the satellite checklist: truncated
// lines, binary garbage and foreign-version records must all load cleanly,
// keeping every parseable current-version record.
func TestStoreCorruptionTolerance(t *testing.T) {
	c, st, dir := tempCache(t)
	c.Put(dk(1, 1), Decision{Format: "CSR5"})
	c.Put(dk(2, 8), Decision{Format: "ELL", Probed: true})
	st.Close()

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Binary garbage, a foreign-version decision, a valid decision, and a
	// torn (truncated mid-JSON, no newline) tail.
	fmt.Fprintf(f, "\x00\x7f\xffnot json at all\n")
	fmt.Fprintf(f, `{"v":99,"kind":"decision","fp":3,"device":"host","k":1,"shards":1,"format":"Ghost"}`+"\n")
	fmt.Fprintf(f, `{"v":%d,"kind":"decision","lvl":%q,"fp":4,"device":"host","k":1,"shards":1,"format":"COO"}`+"\n", SchemaVersion, simd.Level())
	fmt.Fprintf(f, `{"v":%d,"kind":"decision","fp":5,"device":"ho`, SchemaVersion)
	f.Close()

	re, rs := attached(t, dir)
	keys, _ := re.Decisions()
	if len(keys) != 3 {
		t.Fatalf("loaded %d decisions from corrupted journal, want 3 (got %+v)", len(keys), keys)
	}
	if _, ok := find(keys, dk(3, 1)); ok {
		t.Error("foreign-version record must not load")
	}
	if _, ok := find(keys, dk(4, 1)); !ok {
		t.Error("valid record after garbage must load")
	}
	if st := rs.Stats(); st.Skipped < 2 {
		t.Errorf("skipped = %d, want >= 2 (garbage + foreign version)", st.Skipped)
	}
}

func find(keys []DecisionKey, want DecisionKey) (int, bool) {
	for i, k := range keys {
		if k == want {
			return i, true
		}
	}
	return 0, false
}

// TestStoreHostInvalidation: a journal written by a different machine (or
// schema) is measurement data about other hardware — it must be discarded
// wholesale and the file rewritten.
func TestStoreHostInvalidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	lines := []string{
		fmt.Sprintf(`{"v":%d,"kind":"header","schema":%d,"host":"plan9/mips/cpu512"}`, SchemaVersion, SchemaVersion),
		fmt.Sprintf(`{"v":%d,"kind":"decision","fp":1,"device":"host","k":1,"shards":1,"format":"CSR5"}`, SchemaVersion),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, st := attached(t, dir)
	if keys, _ := c.Decisions(); len(keys) != 0 {
		t.Fatalf("foreign-host decisions leaked: %+v", keys)
	}
	if !st.Stats().Invalidated {
		t.Error("stats should report invalidation")
	}
	// The rewrite must leave a fresh local header so the next process
	// trusts its own appends.
	c.Put(dk(9, 1), Decision{Format: "COO"})
	st.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr record
	first := strings.SplitN(string(b), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &hdr); err != nil || hdr.Kind != "header" || hdr.Host != HostFingerprint() {
		t.Fatalf("rewritten journal header = %q", first)
	}
	re, _ := attached(t, dir)
	if keys, _ := re.Decisions(); len(keys) != 1 {
		t.Fatalf("post-invalidation append lost: %+v", keys)
	}
}

// TestStoreDiscardsOtherCPU: the host fingerprint ends in the CPU
// component (simd.CPU, set on amd64), and a journal whose header differs
// from this host's only there was written on another
// processor, whatever its core count and SIMD tier: it is invalidated on
// open and none of its decisions load. The same lines under this host's
// header load, so the forged component is what sets them aside.
func TestStoreDiscardsOtherCPU(t *testing.T) {
	host := HostFingerprint()
	if !strings.HasSuffix(host, "/"+simd.CPU()) || (runtime.GOARCH == "amd64" && simd.CPU() == "") {
		t.Fatalf("host fingerprint %q does not end in the CPU component %q", host, simd.CPU())
	}
	other := "AuthenticAMD-26.2.0"
	if simd.CPU() == other {
		other = "GenuineIntel-6.207.2"
	}
	forged := strings.TrimSuffix(host, simd.CPU()) + other
	for _, tc := range []struct {
		header string
		load   bool
	}{{host, true}, {forged, false}} {
		dir := t.TempDir()
		lines := []string{
			fmt.Sprintf(`{"v":2,"kind":"header","schema":2,"host":%q}`, tc.header),
			fmt.Sprintf(`{"v":2,"kind":"decision","lvl":%q,"fp":5,"device":"host","k":1,"format":"MKL-IE","probed":true}`, simd.Level()),
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		c, st := attached(t, dir)
		keys, _ := c.Decisions()
		if got := st.Stats().Invalidated; got == tc.load || (len(keys) == 1) != tc.load {
			t.Errorf("header %q: invalidated %v with %d decisions loaded, want loaded %v", tc.header, got, len(keys), tc.load)
		}
		st.Close()
	}
}

// TestStoreDiscardsSchema1: a version-1 journal (three record kinds) is
// discarded wholesale by the header rule — never an error, nothing loads,
// and the rewritten file holds only the two kinds there are.
func TestStoreDiscardsSchema1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	lvl := simd.Level()
	lines := []string{
		fmt.Sprintf(`{"v":1,"kind":"header","schema":1,"host":%q}`, HostFingerprint()),
		fmt.Sprintf(`{"v":1,"kind":"decision","lvl":%q,"fp":1,"device":"host","k":1,"shards":1,"format":"CSR5"}`, lvl),
		fmt.Sprintf(`{"v":1,"kind":"experience","lvl":%q,"exp":{"device":"host","k":1,"fv":{"Rows":9},"best":"ELL"}}`, lvl),
		fmt.Sprintf(`{"v":1,"kind":"autotune","lvl":%q,"fp":1,"device":"host","k":8,"param":"spmm.tile","value":"8"}`, lvl),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, st := attached(t, dir)
	if keys, _ := c.Decisions(); len(keys) != 0 || !st.Stats().Invalidated {
		t.Fatalf("version-1 journal: %d decisions loaded, stats %+v; want none, invalidated", len(keys), st.Stats())
	}
	if deg, reason := st.Degraded(); deg {
		t.Fatalf("discarding a version-1 journal degraded the store: %s", reason)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 1 || !strings.Contains(string(b), `"schema":2`) {
		t.Fatalf("rewritten journal = %q, want one schema-2 header line", b)
	}
}

// TestStoreLoadsShardKeyedLines: schema-2 decision lines written while the
// key still carried the engine's shard count load with that field ignored.
// Two lines that differ only in it are one key, the newer winning; an
// identical re-put appends nothing; a compaction rewrites the line without
// the field, and the rewritten journal reloads the same decision.
func TestStoreLoadsShardKeyedLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	lvl := simd.Level()
	lines := []string{
		fmt.Sprintf(`{"v":2,"kind":"header","schema":2,"host":%q}`, HostFingerprint()),
		fmt.Sprintf(`{"v":2,"kind":"decision","lvl":%q,"fp":7,"device":"host","k":8,"shards":1,"format":"ELL"}`, lvl),
		fmt.Sprintf(`{"v":2,"kind":"decision","lvl":%q,"fp":7,"device":"host","k":8,"shards":4,"format":"BCSR","probed":true,"tuned":"bcsr.block=4x4"}`, lvl),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := Decision{Format: "BCSR", Probed: true}
	check := func(c *DecisionCache, when string) {
		t.Helper()
		keys, decs := c.Decisions()
		if len(keys) != 1 || keys[0] != dk(7, 8) || decs[0] != want {
			t.Fatalf("%s: loaded %+v %+v, want the newer line's %+v alone", when, keys, decs, want)
		}
	}

	c, st := attached(t, dir)
	check(c, "open")
	if s := st.Stats(); s.Invalidated || s.Skipped != 0 || s.Dead != 1 {
		t.Fatalf("open: stats %+v, want nothing invalidated or skipped and the older line dead", s)
	}
	c.Put(dk(7, 8), want)
	if n := st.Stats().Appended; n != 0 {
		t.Fatalf("an identical re-put appended %d lines, want 0", n)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "shards") || strings.Contains(string(b), "tuned") || strings.Count(string(b), "\n") != 2 {
		t.Fatalf("compacted journal = %q, want a header and one decision line without the shard count or tuning", b)
	}

	re, _ := attached(t, dir)
	check(re, "reopen after compaction")
}

func TestStoreCompaction(t *testing.T) {
	c, st, dir := tempCache(t)
	// 50 keys re-decided 10 times each: 500 lines, 450 dead.
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 50; i++ {
			c.Put(dk(uint64(i), 1), Decision{Format: fmt.Sprintf("F%d-%d", i, rep)})
		}
	}
	path := filepath.Join(dir, journalName)
	before, _ := os.Stat(path)
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends must keep working on the renamed file.
	c.Put(dk(999, 1), Decision{Format: "COO"})
	st.Close()
	re, _ := attached(t, dir)
	keys, decs := re.Decisions()
	if len(keys) != 51 {
		t.Fatalf("reloaded %d decisions after compaction, want 51", len(keys))
	}
	for i, k := range keys {
		if k.Fingerprint == 999 {
			continue
		}
		if want := fmt.Sprintf("F%d-9", k.Fingerprint); decs[i].Format != want {
			t.Errorf("key %d: %q, want latest %q", k.Fingerprint, decs[i].Format, want)
		}
	}
}

// TestStoreConcurrentPutPersist drives concurrent Put traffic through a
// journal-attached cache; run with -race. Reload verifies every key
// resolves to some value that was actually written.
func TestStoreConcurrentPutPersist(t *testing.T) {
	c, st, dir := tempCache(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := dk(uint64(i%16), g%3)
				c.Put(k, Decision{Format: fmt.Sprintf("F%d", g)})
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	st.Close()
	re, _ := attached(t, dir)
	keys, decs := re.Decisions()
	if len(keys) == 0 {
		t.Fatal("no decisions persisted")
	}
	for i := range decs {
		if !strings.HasPrefix(decs[i].Format, "F") {
			t.Fatalf("key %+v holds foreign value %+v", keys[i], decs[i])
		}
	}
}

// TestStoreExperienceWindow: samples ride on decisions, so the decision
// bound is the experience window — past it the oldest measurements go,
// from the cache at once and from the file at the next compaction, and a
// reopened journal holds the same window.
func TestStoreExperienceWindow(t *testing.T) {
	c, st, dir := tempCache(t)
	sample := func(i int) Decision {
		return Decision{Format: fmt.Sprintf("F%d", i), Probed: true, FV: core.FeatureVector{Rows: 1 + i}}
	}
	for i := 0; i < DefaultDecisionCap+50; i++ {
		c.Put(dk(uint64(i), 1), sample(i))
	}
	if c.Len() != DefaultDecisionCap {
		t.Fatalf("the cache holds %d, want %d", c.Len(), DefaultDecisionCap)
	}
	if got := st.Stats().Dead; got != 50 {
		t.Errorf("dead lines = %d, want the 50 evicted", got)
	}
	st.Close()
	re, _ := attached(t, dir)
	keys, decs := re.Decisions()
	if len(keys) != DefaultDecisionCap {
		t.Fatalf("reloaded %d decisions, want %d (most recent)", len(keys), DefaultDecisionCap)
	}
	if keys[0] != dk(50, 1) || decs[len(decs)-1] != sample(DefaultDecisionCap+49) {
		t.Errorf("window is not the newest: first %+v, last %+v", keys[0], decs[len(decs)-1])
	}
}

func TestDirResolution(t *testing.T) {
	t.Setenv(EnvCacheDir, "/tmp/spmv-env-dir")
	d, err := Dir()
	if err != nil || d != "/tmp/spmv-env-dir" {
		t.Fatalf("Dir with env = %q, %v", d, err)
	}
	t.Setenv(EnvCacheDir, "")
	d, err = Dir()
	if err != nil {
		t.Skipf("no user cache dir in this environment: %v", err)
	}
	if !strings.HasSuffix(d, "go-spmv") {
		t.Errorf("default dir = %q, want .../go-spmv", d)
	}
}
