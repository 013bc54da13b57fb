package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzStoreLoad feeds arbitrary bytes to Open as decisions.jsonl: the load
// must never error or panic, and whatever it did load must survive a
// compaction and a reopen unchanged, in the same order.
func FuzzStoreLoad(f *testing.F) {
	lvl, host := EffectiveLevel(), HostFingerprint()
	header := fmt.Sprintf(`{"v":%d,"kind":"header","schema":%d,"host":%q}`+"\n", SchemaVersion, SchemaVersion, host)
	dec := func(fp int, rest string) string {
		return fmt.Sprintf(`{"v":%d,"kind":"decision","lvl":%q,"fp":%d,"device":"host","k":8,"shards":1,"format":"BCSR"%s}`+"\n", SchemaVersion, lvl, fp, rest)
	}
	f.Add([]byte(""))
	f.Add([]byte(header + dec(1, "") + dec(2, `,"probed":true,"tuned":"bcsr.block=4x4 spmm.tile=8","fv":{"Rows":9,"Cols":9,"NNZ":27,"AvgNNZPerRow":3}`) + dec(1, `,"tuned":"bcsr.block=2x2"`)))
	f.Add([]byte(dec(3, "") + header + "\x00\xff garbage\n" + `{"v":2,"kind":"decision","lvl":"other","fp":4,"format":"ELL"}` + "\n" + `{"v":2,"kind":"deci`))
	f.Add([]byte(`{"v":1,"kind":"header","schema":1,"host":"` + host + `"}` + "\n" + `{"v":1,"kind":"autotune","fp":1,"param":"spmm.tile","value":"8"}` + "\n"))
	f.Fuzz(func(t *testing.T, journal []byte) {
		if len(journal) > 64<<10 {
			t.Skip() // keep re-marshaled lines far below the scanner's line bound
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		keys, decs := st.Decisions()
		if err := st.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		st.Close()
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		keys2, decs2 := re.Decisions()
		if !slices.Equal(keys, keys2) || !slices.Equal(decs, decs2) {
			t.Fatalf("compaction changed what loaded:\n%+v %+v\n%+v %+v", keys, decs, keys2, decs2)
		}
		if s := re.Stats(); s.Invalidated || s.Skipped != 0 || s.Dead != 0 {
			t.Fatalf("a compacted journal reloaded with %+v", s)
		}
	})
}
