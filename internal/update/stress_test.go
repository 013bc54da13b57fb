package update

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/matrix"
)

// TestLinearizablePrefixUnderLoad is the snapshot-consistency stress: one
// sequencing writer steps the diagonal cells of rows 0..7 through encoded
// step values while concurrent readers multiply and chaos writers mutate
// disjoint rows. Every observed y must decode to a consistent prefix of
// the sequencer's program order: if the largest step visible anywhere is
// L, then each row r must show exactly the last step <= L that targeted
// it. Background compactions run throughout (tiny threshold), so the
// prefix property is checked across epoch swaps too. Run with -race.
func TestLinearizablePrefixUnderLoad(t *testing.T) {
	const rows = 64
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	m := matrix.Identity(rows)
	u, err := New(m, Options{
		Format:     "Naive-CSR",
		MinCompact: 64, CompactRatio: 1e-9, // compact aggressively under load
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Sequencer: step s sets the diagonal of row s%8 to enc(s) = 100+s.
	// Each row's cell moves through strictly increasing encodings, so a
	// multiply with x = ones recovers the last step per row exactly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 1; s <= steps; s++ {
			u.Set(s%8, s%8, 100+float64(s))
		}
		stop.Store(true)
	}()

	// Chaos writers: each owns a disjoint band of rows >= 32, hammering
	// Set/Add/Delete to stress the log, the net index, and compaction.
	// Their final per-cell values are validated after the quiesce.
	const nChaos = 3
	mirrors := make([]map[[2]int]float64, nChaos)
	for w := 0; w < nChaos; w++ {
		mirrors[w] = make(map[[2]int]float64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			lo := 32 + w*10
			mine := mirrors[w]
			for r := lo; r < lo+10; r++ {
				mine[[2]int{r, r}] = 1 // the identity base: an Add lands on it
			}
			for !stop.Load() {
				r := lo + rng.Intn(10)
				c := rng.Intn(rows)
				v := float64(rng.Intn(32)-16) / 4
				switch rng.Intn(4) {
				case 0, 1:
					u.Set(r, c, v)
					if v == 0 {
						delete(mine, [2]int{r, c})
					} else {
						mine[[2]int{r, c}] = v
					}
				case 2:
					u.Add(r, c, v)
					if nv := mine[[2]int{r, c}] + v; nv == 0 {
						delete(mine, [2]int{r, c})
					} else {
						mine[[2]int{r, c}] = nv
					}
				default:
					u.Delete(r, c)
					delete(mine, [2]int{r, c})
				}
			}
		}(w)
	}

	// Readers: decode the sequencer rows from every multiply and assert
	// the prefix property; prefixes must also be monotone per reader.
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	const nReaders = 4
	errs := make(chan string, nReaders)
	for g := 0; g < nReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, rows)
			prevL := 0
			for !stop.Load() {
				if g%2 == 0 {
					u.SpMV(x, y)
				} else {
					u.SpMVParallel(x, y, 4)
				}
				// Decode: row r in 0..7 reads 1 (untouched identity) or
				// 100+s for the last applied step s targeting it.
				var obs [8]int
				L := 0
				for r := 0; r < 8; r++ {
					switch {
					case y[r] == 1:
						obs[r] = 0
					case y[r] >= 101:
						obs[r] = int(y[r] - 100)
						if obs[r] > L {
							L = obs[r]
						}
					default:
						errs <- "row read an impossible value"
						return
					}
				}
				if L < prevL {
					errs <- "observed prefix went backwards"
					return
				}
				prevL = L
				for r := 0; r < 8; r++ {
					// Last step <= L targeting row r: steps hit row s%8, so
					// it is the largest s <= L with s%8 == r.
					q := L - (L-r+8)%8
					if q < 1 {
						q = 0
					}
					if obs[r] != q {
						errs <- "row inconsistent with observed prefix"
						return
					}
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Quiesce: fold everything and validate the final state cell by cell.
	if err := u.Compact(); err != nil {
		t.Fatal(err)
	}
	for s := steps - 7; s <= steps; s++ {
		if got := u.At(s%8, s%8); got != 100+float64(s) {
			t.Errorf("final diagonal of row %d = %g, want %g", s%8, got, 100+float64(s))
		}
	}
	for w, mine := range mirrors {
		for rc, v := range mine {
			if got := u.At(rc[0], rc[1]); got != v {
				t.Errorf("chaos writer %d cell (%d,%d) = %g, want %g", w, rc[0], rc[1], got, v)
			}
		}
	}
	if st := u.Stats(); st.Compactions == 0 {
		t.Error("stress ran without a single background compaction; threshold tuning is off")
	}
}

// TestCompactionDoesNotBlockReaders pins the zero-reader-blocking
// contract: while the compactor is stalled inside its rebuild phase (via
// the test hook), readers and writers must keep completing multiplies and
// updates on the frozen snapshot.
func TestCompactionDoesNotBlockReaders(t *testing.T) {
	const rows = 128
	m := matrix.Identity(rows)
	u, err := New(m, Options{Format: "Naive-CSR", NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		u.Set(i, (i+1)%rows, 3)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	u.rebuildHook = func() {
		close(entered)
		<-release
	}
	done := make(chan error, 1)
	go func() { done <- u.Compact() }()
	<-entered

	// The freeze has published; the compactor is parked mid-rebuild
	// holding no locks. Readers and writers must make full progress.
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	for i := 0; i < 200; i++ {
		u.SpMV(x, y)
		if y[0] != 1+3 {
			t.Fatalf("iteration %d: y[0] = %g, want 4", i, y[0])
		}
	}
	for i := 0; i < 50; i++ {
		u.Set(i, (i+2)%rows, 5)
	}
	u.SpMV(x, y)
	if y[0] != 1+3+5 {
		t.Fatalf("post-write y[0] = %g, want 9", y[0])
	}
	epochDuring := u.Epoch()

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	u.rebuildHook = nil
	if u.Epoch() <= epochDuring {
		t.Errorf("epoch did not advance past the rebuild: %d -> %d", epochDuring, u.Epoch())
	}
	st := u.Stats()
	if st.Compactions != 1 || st.FrozenLen != 0 {
		t.Errorf("Stats after compaction = %+v", st)
	}
	// The 50 writes landed during the stall stay in the active log and
	// still read correctly on the new epoch.
	u.SpMV(x, y)
	if y[0] != 1+3+5 {
		t.Errorf("post-compaction y[0] = %g, want 9", y[0])
	}
}
