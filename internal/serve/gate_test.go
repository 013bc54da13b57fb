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
// against co for 300 ms after one warm round (pools and lane frames hot) and
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

// directVsCoalesced runs clients closed-loop clients once on the direct
// path (batch 1: each request its own parallel SpMV) and once through a
// coalescer at the daemon default, and returns both requests/s and the
// coalesced side's mean batch.
func directVsCoalesced(f formats.Format, clients int) (direct, coalesced, meanBatch float64) {
	seq := NewCoalescer(context.Background(), f, 1)
	direct, _ = closedLoopRPS(seq, f.Cols(), clients, 101)
	seq.Close()

	co := NewCoalescer(context.Background(), f, DefaultMaxBatch)
	coalesced, meanBatch = closedLoopRPS(co, f.Cols(), clients, 201)
	co.Close()
	return direct, coalesced, meanBatch
}

// TestCoalescedBatchingGate is the serving layer's reason to exist as a
// number: 8 concurrent single-vector clients on the medium tier must get
// at least 2.00x the aggregate throughput through the coalescer (daemon
// default: group commit into fused MultiplyMany calls of up to 8) that
// they get on the direct path. Driven in-process so the ratio is kernel
// fusion, not the JSON codec. The 1, 2 and 4 client points of the curve
// are logged, not gated.
func TestCoalescedBatchingGate(t *testing.T) {
	const floor = 2.0
	exec.Prestart()
	f := naiveCSR(testutil.GateTier(t, "medium-600k"))

	for _, clients := range []int{1, 2, 4, 8} {
		seqRPS, coalRPS, meanBatch := directVsCoalesced(f, clients)
		speedup := coalRPS / seqRPS
		t.Logf("%d clients: sequential %.0f req/s, coalesced %.0f req/s (mean batch %.2f), speedup %.2fx",
			clients, seqRPS, coalRPS, meanBatch, speedup)
		if clients == 8 && speedup < floor {
			t.Errorf("coalesced path carries %.2fx sequential throughput at %d clients, floor %.2fx (%d workers)",
				speedup, clients, floor, exec.MaxWorkers())
		}
	}
}

// TestCoalescerLoneRequestGate: a client alone must not pay for batching.
// One closed-loop client through the coalescer must get at least 0.85x
// the requests/s of the direct path on the medium tier — its request finds
// the matrix idle and runs at once. Best of three alternating rounds per
// side.
func TestCoalescerLoneRequestGate(t *testing.T) {
	const floor = 0.85
	exec.Prestart()
	f := naiveCSR(testutil.GateTier(t, "medium-600k"))

	var bestDirect, bestCoalesced float64
	for round := 0; round < 3; round++ {
		direct, coalesced, _ := directVsCoalesced(f, 1)
		bestDirect, bestCoalesced = max(bestDirect, direct), max(bestCoalesced, coalesced)
	}
	ratio := bestCoalesced / bestDirect
	t.Logf("1 client: direct %.0f req/s, coalesced %.0f req/s, ratio %.2fx", bestDirect, bestCoalesced, ratio)
	if ratio < floor {
		t.Errorf("a lone client gets %.2fx the direct path's requests/s through the coalescer, floor %.2fx", ratio, floor)
	}
}
