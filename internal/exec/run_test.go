package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// placement is one shape the dispatch body serves, built by hand over a
// standalone pool so that which lane lands where is fixed: lane 0 is the
// caller's, pooled is a lane posted to a worker (-1: none), spawned a lane
// the pool could not take (-1: none).
type placement struct {
	name            string
	size            int // pool workers; 0 = a busy engine, no pool
	n               int
	pooled, spawned int
}

var placements = []placement{
	{"busy engine", 0, 4, -1, 3},
	{"one shard", 3, 4, 2, -1},
	{"one shard with overflow", 2, 6, 1, 5},
}

func (pc placement) pool(t *testing.T) *Pool {
	if pc.size == 0 {
		return nil
	}
	p := NewPool(pc.size)
	p.Prestart()
	t.Cleanup(p.Close)
	return p
}

// grantOver is the grant Acquire would return had it found exactly p (nil:
// the pool busy).
func grantOver(workers int, ctl *Ctl, p *Pool) Grant {
	if p != nil {
		p.mu.Lock()
	}
	return Grant{workers: workers, ctl: ctl, pool: p}
}

// TestOneDispatchBody drives every placement, with and without a Ctl,
// through Grant.Run: every lane runs once; a fault on the caller's lane, on
// a pooled lane (at one P the caller claims it back, at four a worker takes
// it) and on a spawned lane comes back as that lane's *PanicError and
// poisons the call; a pre-cancelled Ctl runs nothing; and the dispatch
// after each of these is clean.
func TestOneDispatchBody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dead, kill := context.WithCancel(context.Background())
	kill()
	for _, pc := range placements {
		for _, live := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ctl=%v", pc.name, live), func(t *testing.T) {
				pool := pc.pool(t)
				newCtl := func() *Ctl {
					if !live {
						return nil
					}
					return NewCtl(ctx)
				}
				clean := func(when string) {
					t.Helper()
					counts := make([]atomic.Int32, pc.n)
					g := grantOver(pc.n, newCtl(), pool)
					if err := g.Run(pc.n, func(w int) { counts[w].Add(1) }); err != nil {
						t.Fatalf("%s: Run = %v", when, err)
					}
					for w := range counts {
						if c := counts[w].Load(); c != 1 {
							t.Fatalf("%s: lane %d ran %d times, want 1", when, w, c)
						}
					}
				}
				clean("first dispatch")

				for _, procs := range []int{1, 4} {
					for _, lane := range []int{0, pc.pooled, pc.spawned} {
						if lane < 0 {
							continue
						}
						atProcs(t, procs)
						ctl := newCtl()
						g := grantOver(pc.n, ctl, pool)
						err := g.Run(pc.n, func(w int) {
							if w == lane {
								panic(fmt.Sprint("fault on ", w))
							}
						})
						var pe *PanicError
						if !errors.As(err, &pe) || pe.Worker != lane || pe.Value != fmt.Sprint("fault on ", lane) || len(pe.Stack) == 0 {
							t.Fatalf("GOMAXPROCS %d, fault on lane %d: Run = %v, want that lane's *PanicError", procs, lane, err)
						}
						if live && (!ctl.Cancelled() || NewCtl(ctx).Cancelled()) {
							t.Fatalf("fault on lane %d: call poisoned %v, context cancelled %v; want true, false",
								lane, ctl.Cancelled(), NewCtl(ctx).Cancelled())
						}
						clean(fmt.Sprintf("after a fault on lane %d", lane))
					}
				}

				if live {
					var ran atomic.Int32
					g := grantOver(pc.n, NewCtl(dead), pool)
					if err := g.Run(pc.n, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) || ran.Load() != 0 {
						t.Fatalf("pre-cancelled: Run = %v with %d lanes run, want context.Canceled and none", err, ran.Load())
					}
					clean("after a pre-cancelled dispatch")
				}
			})
		}
	}
}

// TestWarmDispatchAllocs: a dispatch that spawns nothing allocates nothing
// — over the pool, with and without a live Ctl made outside the loop.
func TestWarmDispatchAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink atomic.Int64
	f := func(w int) { sink.Add(int64(w)) }
	for _, pc := range placements {
		if pc.spawned >= 0 {
			continue
		}
		pool := pc.pool(t)
		for name, ctl := range map[string]*Ctl{"nil Ctl": nil, "live Ctl": NewCtl(ctx)} {
			dispatch := func() {
				g := grantOver(pc.n, ctl, pool)
				g.Run(pc.n, f)
			}
			dispatch()
			if allocs := testing.AllocsPerRun(100, dispatch); allocs > 0 {
				t.Errorf("%s, %s: warm dispatch allocates %v times, want 0", pc.name, name, allocs)
			}
		}
	}
}
