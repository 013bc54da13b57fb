package exec

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkDispatch times the dispatch layer itself (no kernel work)
// against the seed-era spawn-per-call path, on both legs of the handoff:
// hot is a closed loop, where each dispatch finds the workers polling, and
// cold leaves 1 ms idle (ten polling budgets, untimed) before each
// dispatch, so it finds them parked and pays the wake or the caller's
// claim.
func BenchmarkDispatch(b *testing.B) {
	var sink int64
	body := func(w int) { atomic.AddInt64(&sink, 1) }
	for _, n := range []int{2, 4, 8} {
		p := NewPool(n)
		p.Prestart()
		b.Run(fmt.Sprintf("hot/pool-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Run(n, body)
			}
		})
		b.Run(fmt.Sprintf("cold/pool-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				time.Sleep(time.Millisecond)
				b.StartTimer()
				p.Run(n, body)
			}
		})
		b.Run(fmt.Sprintf("spawn-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := Grant{workers: n, shardID: AnyShard} // no pool: every lane but the caller's is spawned
				g.Run(n, body)
			}
		})
		p.Close()
	}
}
