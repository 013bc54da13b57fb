package selector

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/matrix"
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

// hostSpec models the machine BuildAuto ranks for when no device is named;
// tests pin it, so that what they assert of a host pick is not a timing.
var hostSpec = device.HostSpec

const (
	// learnKNN is the width of the k-NN vote over measured samples: probe
	// outcomes are sparse and high-signal, so a narrow vote tracks them
	// closely.
	learnKNN = 3
	// LearnMaxDist is how far (core.Distance) the nearest measured sample
	// may be from a new matrix and still steer its shortlist; beyond it the
	// analytical model decides alone. The threshold sits at roughly "same
	// footprint class, similar row profile".
	LearnMaxDist = 0.15
)

// vote takes the k-NN vote over the regime's measured samples, as the
// cache weighs them (cache.DecisionCache.Samples); ok only when one lies
// within LearnMaxDist of the new matrix.
func vote(dc *cache.DecisionCache, device string, k int, fv core.FeatureVector) (string, bool) {
	decs, weights := dc.Samples(device, k)
	samples := make([]Sample, len(decs))
	for i, d := range decs {
		samples[i] = Sample{FV: d.FV, Best: d.Format, Weight: weights[i]}
	}
	return TrainSamples(samples, learnKNN).PredictNear(fv, LearnMaxDist)
}

// AutoOptions configures BuildAuto.
type AutoOptions struct {
	// K is the expected right-hand-side count of the workload (0 or 1:
	// single-vector SpMV). The k = 1 and k > 1 regimes rank formats
	// differently, so a block solver should pass its block width.
	K int
	// Device names the testbed whose model ranks candidates; "" targets
	// the host (device.HostSpec), which offers every registered format.
	Device string
	// Probe refines the model's choice by timing the shortlist on a
	// row-sampled sub-matrix through the execution engine and picking the
	// measured winner. Costs a few milliseconds per candidate; worth it
	// for any matrix that will be multiplied more than a handful of times.
	Probe bool
	// Cache is the remembered measurement this build consults and feeds:
	// the decisions, and the k-NN vote over the samples they carry. Nil
	// means a stateless selection: nothing is looked up, nothing is
	// recorded.
	Cache *cache.DecisionCache
	// NoCache makes this build stateless whatever Cache holds (benchmarks
	// that must observe the full pipeline every time): no decision —
	// format, tuning or sample — is looked up or recorded, and no vote is
	// taken.
	NoCache bool
	// NoLearn keeps the k-NN vote out of this build: past probe outcomes
	// are not consulted, and the decision it records carries no sample.
	// The model-only baselines use it so their numbers reflect the
	// analytical model alone.
	NoLearn bool
	// Tune enables the structural-parameter micro-autotuner: the BCSR
	// block geometry and the fused SpMM register-tile width are measured
	// on the probe's row-sampled harness (winners remembered with the
	// decision). Like Probe, worth it for matrices multiplied more than
	// a handful of times.
	Tune bool
}

// BuildAuto selects a storage format for the matrix and builds it: the
// paper's feature analysis driving execution. The pipeline is
//
//  1. extract the five-feature vector (core.Extract);
//  2. consult the decision cache keyed by (fingerprint, device, k) —
//     loaded from the disk journal when its owner persists, so a
//     restarted process reuses every decision its predecessors made;
//  3. on a miss, shortlist candidates by the k-regime device model
//     (device.Spec.EstimateMulti ranking, plus the RulesK pick), and let
//     the k-NN vote over the cache's measured samples promote the
//     measured winner of a nearby matrix to the front of the shortlist;
//  4. optionally micro-probe the shortlist — time each candidate on a
//     row-sampled sub-matrix through the execution engine — and keep the
//     measured winner;
//  5. build the winner (with o.Tune, under the structural parameters
//     autotune measures), falling down the shortlist (and ultimately to
//     Naive-CSR) if a build refuses the matrix, and cache the decision:
//     the format, its tuning and — when a probe backed it — the feature
//     vector, a labeled sample so the next decision starts smarter.
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
// milliseconds). The decision cache is only written for selections that
// ran to completion; an aborted selection leaves no partial state behind.
func BuildAutoCtx(ctx context.Context, m *matrix.CSR, o AutoOptions) (*formats.Auto, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := max(o.K, 1)
	spec := hostSpec()
	if o.Device != "" {
		s, ok := device.ByName(o.Device)
		if !ok {
			return nil, fmt.Errorf("selector: unknown device %q", o.Device)
		}
		spec = s
	}
	dc := o.Cache
	if o.NoCache {
		dc = nil
	}
	learn := dc != nil && !o.NoLearn
	choice := formats.AutoChoice{Device: spec.Name, K: k}
	key := cache.DecisionKey{Fingerprint: m.Fingerprint(), Device: spec.Name, K: k}
	if dc != nil {
		if d, ok := dc.Get(key); ok {
			// The decision's tuning re-applies on the cached path; a
			// parameter it lacks is measured now and the decision re-put,
			// once.
			if f, tuned, err := build(ctx, m, d.Format, nil, k, o, d.Tuned, &choice); err == nil {
				if enc := encodeTuned(tuned); o.Tune && enc != d.Tuned {
					d.Tuned = enc
					dc.Put(key, d)
				}
				choice.Cached = true
				choice.Probed = d.Probed
				choice.Shortlist = []string{d.Format}
				return formats.NewAuto(f, choice), nil
			}
			// A cached format that no longer builds (one an older build
			// journaled and this one has no kernel for) falls through to
			// fresh selection, whose decision supersedes it.
		}
	}

	fv := core.Extract(m)
	shortlist := Shortlist(spec, fv, k, DefaultShortlist)
	if len(shortlist) == 0 {
		// Degenerate matrix (empty, or hostile to every model): CSR always
		// builds and is never a bad worst case.
		shortlist = []string{"Naive-CSR"}
	}
	if learn {
		// A measured winner of a nearby matrix outranks the analytical
		// model: promote it to the front (it becomes the pick when no probe
		// runs, and a probed candidate otherwise) — if the device still
		// offers it: a journal from an older build can name a format this
		// one no longer has.
		if name, ok := vote(dc, spec.Name, k, fv); ok && slices.Contains(spec.Formats, name) {
			shortlist = promote(shortlist, name)
			choice.Voted = true
		}
	}
	choice.Shortlist = shortlist

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pick := shortlist[0]
	var prebuilt formats.Format
	if o.Probe && m.NNZ() >= autoProbeMinNNZ && len(shortlist) > 1 {
		winner, built, ns := probe(ctx, m, shortlist, k)
		if err := ctx.Err(); err != nil {
			// The probe stopped early; its partial measurements must not
			// become a cached decision or a sample.
			return nil, err
		}
		if winner != "" {
			pick = winner
			prebuilt = built // non-nil when the probe ran on the full matrix
			choice.Probed, choice.ProbeNs = true, ns
		}
	}

	// Fall down the rest of the shortlist and finally to Naive-CSR when
	// builders refuse the concrete matrix (trait estimates are
	// feature-level; the built structure can still exceed a padding cap).
	tried := map[string]bool{}
	var f formats.Format
	var tuned map[string]string
	var err error
	for _, name := range append(append([]string{pick}, shortlist...), "Naive-CSR") {
		if tried[name] {
			continue
		}
		tried[name] = true
		if f, tuned, err = build(ctx, m, name, prebuilt, k, o, "", &choice); err == nil {
			break
		}
		prebuilt = nil // the probe's instance was the pick's
	}
	if err != nil {
		return nil, fmt.Errorf("selector: no candidate builds: %w", err)
	}
	d := cache.Decision{Format: f.Name(), Probed: choice.Probed, Tuned: encodeTuned(tuned)}
	if choice.Probed && learn {
		// A measured choice is a sample: it rides on the decision, so the
		// vote reads it from now on, here and in every process that loads
		// the journal.
		d.FV = fv
	}
	if dc != nil {
		dc.Put(key, d)
	}
	return formats.NewAuto(f, choice), nil
}

// build constructs the named format for the matrix, once. With o.Tune the
// tuning is derived from (name, m) first — autotune recalls the parameters
// in known (a cached decision's Tuned; "" on a fresh selection) and sweeps
// the rest — and is a build input. It returns the instance and everything
// autotune recalled or measured, which is what the decision remembers; the
// choice reports those parameters only once an instance built with them
// exists. have is an instance of name the probe already built with the
// zero Tuning, or nil; it is served as is when the derived tuning is the
// zero one.
func build(ctx context.Context, m *matrix.CSR, name string, have formats.Format, k int, o AutoOptions, known string, choice *formats.AutoChoice) (formats.Format, map[string]string, error) {
	b, ok := formats.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("selector: unknown format %q", name)
	}
	var t formats.Tuning
	var tuned map[string]string
	if o.Tune {
		t, tuned = autotune(ctx, m, name, k, known)
	}
	f := have
	if f == nil || t != (formats.Tuning{}) {
		var err error
		if f, err = b.BuildTuned(m, t); err != nil {
			if t == (formats.Tuning{}) {
				return nil, nil, err
			}
			// The tuned geometry refused the full matrix: the default
			// build is served and the choice reports nothing as tuned (the
			// decision still remembers the sweep, so it is not repeated).
			if have != nil {
				return have, tuned, nil
			}
			f, err = b.Build(m)
			return f, tuned, err
		}
	}
	if len(tuned) > 0 {
		choice.Tuned = tuned
	}
	return f, tuned, nil
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
