package cache

// DecisionKey identifies one auto-format decision context. A decision is
// only reusable when everything that influenced it recurs: the sparsity
// structure (matrix fingerprint), the device the ranking targeted, the
// RHS-count regime (k = 1 and k = 8 rank formats differently), and the
// execution-engine shard layout a micro-probe measured under.
type DecisionKey struct {
	Fingerprint uint64 // matrix.CSR.Fingerprint()
	Device      string // device.Spec.Name consulted for the ranking
	K           int    // right-hand-side count the choice targets
	Shards      int    // topo.Shards() at decision time
}

func (k DecisionKey) fingerprint() uint64 { return k.Fingerprint }

// Decision is one cached format choice.
type Decision struct {
	Format string // chosen format name
	Probed bool   // a micro-probe measurement backed the choice
}

// DefaultDecisionCap bounds the in-memory decision cache: a long-running
// server seeing an endless stream of distinct matrices must not grow the
// map without bound. A few thousand entries cover any realistic working set
// of recurring matrices; colder decisions survive in the journal and
// re-warm on the next restart even after eviction.
const DefaultDecisionCap = 4096

// DecisionCache is a concurrency-safe, LRU-bounded store of auto-format
// decisions, optionally backed by a disk journal (AttachStore) so decisions
// survive process restarts: repeated Auto builds of the same matrix under
// the same (device, k, shards) context skip ranking and probing entirely.
// The zero value is not usable; construct with NewDecisionCache.
type DecisionCache struct {
	journaledLRU[DecisionKey, Decision]
}

// NewDecisionCache returns an empty decision cache bounded at
// DefaultDecisionCap entries.
func NewDecisionCache() *DecisionCache {
	c := &DecisionCache{}
	c.init(DefaultDecisionCap, (*Store).Decisions, (*Store).AppendDecision)
	return c
}
