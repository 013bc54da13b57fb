//go:build gate

package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/testutil"
)

// closedLoopRPS runs n closed-loop clients, each with its own vector,
// against co for 300 ms after one warm round (pools and plans hot) and
// returns completed requests per second and the mean batch they rode in.
func closedLoopRPS(co *Coalescer, cols, n int, seed int64) (rps, meanBatch float64) {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = matrix.RandomVector(cols, seed+int64(i))
	}
	var completed atomic.Uint64
	round := func(until time.Time) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for {
					if _, _, err := co.Multiply(context.Background(), xs[i]); err == nil {
						completed.Add(1)
					}
					if !time.Now().Before(until) {
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}
	round(time.Time{}) // warm: one request per client
	completed.Store(0)
	before, start := co.Stats(), time.Now()
	round(start.Add(300 * time.Millisecond))
	elapsed := time.Since(start).Seconds()
	after := co.Stats()
	if db := after.Batches - before.Batches; db > 0 {
		meanBatch = float64(after.Requests-before.Requests) / float64(db)
	}
	return float64(completed.Load()) / elapsed, meanBatch
}

// TestCoalescedBatchingGate is the serving layer's reason to exist as a
// number: 8 concurrent single-vector clients on the medium tier must get
// at least 2.00x the aggregate throughput through the coalescer (daemon
// defaults: window + fused MultiplyMany) that they get on the direct path
// (window 0, batch 1: each request its own parallel SpMV). Driven
// in-process so the ratio is kernel fusion, not the JSON codec.
func TestCoalescedBatchingGate(t *testing.T) {
	const clients, floor = 8, 2.0
	exec.Prestart()
	m := testutil.GateTier(t, "medium-600k")
	f := formats.NewCSR(m)

	seq := NewCoalescer(context.Background(), f, 0, 1)
	seqRPS, _ := closedLoopRPS(seq, m.Cols, clients, 101)
	seq.Close()

	co := NewCoalescer(context.Background(), f, DefaultWindow, DefaultMaxBatch)
	coalRPS, meanBatch := closedLoopRPS(co, m.Cols, clients, 201)
	co.Close()

	speedup := coalRPS / seqRPS
	t.Logf("%d clients: sequential %.0f req/s, coalesced %.0f req/s (mean batch %.2f), speedup %.2fx",
		clients, seqRPS, coalRPS, meanBatch, speedup)
	if speedup < floor {
		t.Errorf("coalesced path carries %.2fx sequential throughput at %d clients, floor %.2fx (%d workers)",
			speedup, clients, floor, exec.MaxWorkers())
	}
}
