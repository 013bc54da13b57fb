package selector

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// DefaultShortlist is how many candidate formats the model ranking keeps
// for a possible micro-probe: the paper's analysis shows the best format
// is almost always within the model's top few, so probing more buys
// little and costs linearly.
const DefaultShortlist = 3

// autoProbeMinNNZ is the matrix size below which BuildAuto skips probing:
// tiny matrices run in the serial fast path where every format costs
// about the same, and the probe's timing floor would dominate the build.
const autoProbeMinNNZ = 1 << 14

// AutoOptions configures BuildAuto.
type AutoOptions struct {
	// K is the expected right-hand-side count of the workload (0 or 1:
	// single-vector SpMV). The k = 1 and k > 1 regimes rank formats
	// differently, so a block solver should pass its block width.
	K int
	// Device names the testbed whose model ranks candidates; "" targets
	// the host (device.HostSpec), which offers all fourteen formats.
	Device string
	// Shortlist is how many formats the model ranking keeps (0: 3).
	Shortlist int
	// Probe refines the model's choice by timing the shortlist on a
	// row-sampled sub-matrix through the execution engine and picking the
	// measured winner. Costs a few milliseconds per candidate; worth it
	// for any matrix that will be multiplied more than a handful of times.
	Probe bool
	// SampleRows overrides the probe sub-matrix row budget (0: 8192).
	SampleRows int
	// Cache overrides the decision cache (nil: the process-wide
	// cache.Decisions). Decisions are keyed by (matrix fingerprint,
	// device, k, shards), so repeated builds of one matrix under one
	// context skip ranking and probing.
	Cache *cache.DecisionCache
	// NoCache disables decision caching entirely (benchmarks that must
	// observe the full pipeline every time).
	NoCache bool
	// NoLearn disables the online-learned experience base for this build:
	// neither consulting past probe outcomes nor recording new ones. The
	// model-only baselines use it so their numbers reflect the analytical
	// model alone.
	NoLearn bool
	// Learned overrides the experience base consulted and fed by this
	// build (nil: the process-wide default). Sessions with private
	// journals pass their own so measured winners — and mispredictions —
	// stay session-local.
	Learned *Learned
	// Shards overrides the execution-context shard count recorded in the
	// decision key (0: the live topo.Shards()). The engine's pool layout
	// is process-wide hardware state; this field only scopes which cached
	// decisions the build may reuse.
	Shards int
	// Tune enables the structural-parameter micro-autotuner: the BCSR
	// block geometry and the fused SpMM register-tile width are measured
	// on the probe's row-sampled harness (winners journaled per
	// fingerprint), and the Vec-CSR wide-row cutoff is derived from the
	// sampled row-length distribution. Like Probe, worth it for matrices
	// multiplied more than a handful of times.
	Tune bool
	// Tunes overrides the autotune cache (nil: the process-wide
	// cache.Tunes). Sessions pass their own so tuned winners stay
	// session-local.
	Tunes *cache.TuneCache
}

// BuildAuto selects a storage format for the matrix and builds it: the
// paper's feature analysis driving execution. The pipeline is
//
//  1. extract the five-feature vector (core.Extract);
//  2. consult the decision cache keyed by (fingerprint, device, k, shards)
//     — warm-loaded from the disk journal when persistence is on, so a
//     restarted process reuses every decision its predecessors made;
//  3. on a miss, shortlist candidates by the k-regime device model
//     (device.Spec.EstimateMulti ranking, plus the RulesK pick), and let
//     the online-learned experience base promote the measured winner of a
//     nearby matrix to the front of the shortlist;
//  4. optionally micro-probe the shortlist — time each candidate on a
//     row-sampled sub-matrix through the execution engine — keep the
//     measured winner, and record the outcome as a labeled sample so the
//     next decision starts smarter;
//  5. build the winner, falling down the shortlist (and ultimately to
//     Naive-CSR) if a build refuses the matrix, and cache the decision.
//
// The returned Auto delegates every kernel to the chosen format and
// carries the decision record. BuildAuto lives here rather than in
// internal/formats because selection consults the device models, which
// themselves build on formats' trait estimates.
func BuildAuto(m *matrix.CSR, o AutoOptions) (*formats.Auto, error) {
	return BuildAutoCtx(context.Background(), m, o)
}

// BuildAutoCtx is BuildAuto honoring a context: the selection aborts with
// the context's error at its stage boundaries — before ranking, and
// between micro-probe candidates (a candidate's timed runs finish, so a
// cancelled selection returns within one candidate's probe budget, a few
// milliseconds). The decision cache and experience base are only written
// for selections that ran to completion; an aborted selection leaves no
// partial state behind.
func BuildAutoCtx(ctx context.Context, m *matrix.CSR, o AutoOptions) (*formats.Auto, error) {
	if o.Cache == nil {
		// The env-configured journal opt-in binds to the process-wide
		// default cache; a build with a private cache (a Session) must not
		// trigger — or be affected by — the global attachment.
		maybeAttachEnvJournal()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := o.K
	if k < 1 {
		k = 1
	}
	spec := device.HostSpec()
	if o.Device != "" {
		s, ok := device.ByName(o.Device)
		if !ok {
			return nil, fmt.Errorf("selector: unknown device %q", o.Device)
		}
		spec = s
	}
	dc := o.Cache
	if dc == nil {
		dc = cache.Decisions
	}
	lrn := o.Learned
	if lrn == nil {
		lrn = defaultLearned
	}
	shards := o.Shards
	if shards <= 0 {
		shards = topo.Shards()
	}
	choice := formats.AutoChoice{
		Device: spec.Name,
		K:      k,
		Shards: shards,
	}

	key := cache.DecisionKey{
		Fingerprint: m.Fingerprint(),
		Device:      spec.Name,
		K:           k,
		Shards:      choice.Shards,
	}
	if !o.NoCache {
		if d, ok := dc.Get(key); ok {
			if f, err := buildByName(m, d.Format); err == nil {
				choice.Cached = true
				choice.Probed = d.Probed
				choice.Shortlist = []string{d.Format}
				if o.Tune {
					// Journaled tune winners re-apply on the cached path;
					// un-swept parameters are measured now, once.
					f = applyTuning(ctx, m, f, k, o, &choice)
				}
				return formats.NewAuto(f, choice), nil
			}
			// A cached format that no longer builds (should not happen for
			// an identical fingerprint) falls through to fresh selection.
		}
	}

	fv := core.Extract(m)
	n := o.Shortlist
	if n <= 0 {
		n = DefaultShortlist
	}
	shortlist := Shortlist(spec, fv, k, n)
	if len(shortlist) == 0 {
		// Degenerate matrix (empty, or hostile to every model): CSR always
		// builds and is never a bad worst case.
		shortlist = []string{"Naive-CSR"}
	}
	if !o.NoLearn {
		// A measured winner of a nearby matrix outranks the analytical
		// model: promote it to the front (it becomes the pick when no probe
		// runs, and a probed candidate otherwise).
		if name, ok := lrn.pick(spec.Name, k, fv); ok {
			shortlist = promote(shortlist, name)
			choice.Learned = true
		}
	}
	choice.Shortlist = shortlist

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pick := shortlist[0]
	var prebuilt formats.Format
	if o.Probe && m.NNZ() >= autoProbeMinNNZ && len(shortlist) > 1 {
		winner, built, results := probe(ctx, m, shortlist, ProbeOptions{K: k, SampleRows: o.SampleRows})
		if err := ctx.Err(); err != nil {
			// The probe stopped early; its partial measurements must not
			// become a cached decision or a learned sample.
			return nil, err
		}
		if winner != "" {
			pick = winner
			prebuilt = built // non-nil when the probe ran on the full matrix
			choice.Probed = true
			choice.ProbeNs = make(map[string]float64, len(results))
			for _, r := range results {
				if r.Err == nil {
					choice.ProbeNs[r.Format] = r.NsPerOp
				}
			}
			if !o.NoLearn {
				observeWinner(dc, lrn, spec.Name, k, fv, winner)
			}
		}
	}

	f := prebuilt
	if f == nil {
		var err error
		f, err = buildFirst(m, pick, shortlist)
		if err != nil {
			return nil, err
		}
	}
	if !o.NoCache {
		dc.Put(key, cache.Decision{Format: f.Name(), Probed: choice.Probed})
	}
	if o.Tune {
		f = applyTuning(ctx, m, f, k, o, &choice)
	}
	return formats.NewAuto(f, choice), nil
}

// applyTuning runs the structural-parameter autotuner and the wide-row
// inspector for the built format, recording what was tuned in the choice,
// and rebuilds the format with the resulting Tuning when it differs from
// the defaults f was built with.
func applyTuning(ctx context.Context, m *matrix.CSR, f formats.Format, k int, o AutoOptions, choice *formats.AutoChoice) formats.Format {
	tc := o.Tunes
	if tc == nil {
		tc = cache.Tunes
	}
	var t formats.Tuning
	if m.NNZ() >= autoProbeMinNNZ {
		var tuned map[string]string
		t, tuned = autotune(ctx, m, f.Name(), choice.Device, k, o.SampleRows, tc)
		if len(tuned) > 0 {
			choice.Tuned = tuned
		}
	}
	switch f.(type) {
	case *formats.VecCSR, *formats.InspectorCSR:
		if f.Traits().Vectorizable {
			t.WideRowMin = vecWideRowMinFor(m)
			choice.VecWideRowMin = t.WideRowMin
		}
	}
	if t == (formats.Tuning{}) {
		return f
	}
	if b, ok := formats.Lookup(f.Name()); ok {
		if nf, err := b.BuildTuned(m, t); err == nil {
			return nf
		}
	}
	return f // the tuned geometry refused the full matrix; keep the default build
}

// promote moves name to the front of the shortlist, inserting it when the
// model ranking missed it entirely.
func promote(shortlist []string, name string) []string {
	out := make([]string, 0, len(shortlist)+1)
	out = append(out, name)
	for _, s := range shortlist {
		if s != name {
			out = append(out, s)
		}
	}
	return out
}

// buildByName builds one named format for the matrix.
func buildByName(m *matrix.CSR, name string) (formats.Format, error) {
	b, ok := formats.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("selector: unknown format %q", name)
	}
	return b.Build(m)
}

// buildFirst builds pick, falling down the rest of the shortlist and
// finally to Naive-CSR when builders refuse the concrete matrix (trait
// estimates are feature-level; the built structure can still exceed a
// padding cap).
func buildFirst(m *matrix.CSR, pick string, shortlist []string) (formats.Format, error) {
	tried := map[string]bool{}
	order := append([]string{pick}, shortlist...)
	order = append(order, "Naive-CSR")
	var lastErr error
	for _, name := range order {
		if tried[name] {
			continue
		}
		tried[name] = true
		f, err := buildByName(m, name)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("selector: no candidate builds: %w", lastErr)
}
