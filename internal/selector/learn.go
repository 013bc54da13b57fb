package selector

// Online learning: every decision a micro-probe backed is a labeled
// feature-space sample — (cache.Decision.FV, cache.Decision.Format) — and
// later decisions consult those samples, so the ranking improves with use:
// the SMART-style reuse-measured-history loop the autotuning literature
// shows selection quality hinges on. Experience lives in a per-(device, k)
// k-NN base that holds one sample per matrix; it persists as part of the
// decisions themselves and warm-loads from them on startup, so a restarted
// server keeps everything its predecessors measured.
//
// The experience base is an instantiable type (Learned) with exactly one
// owner per selection context: a Session holds it inside its State, next
// to the decision cache and the journal behind it. This package keeps no
// experience of its own — a build handed no State learns nothing.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
)

const (
	// learnKNN is the vote width of the experience k-NN: probe outcomes are
	// sparse and high-signal, so a narrow vote tracks them closely.
	learnKNN = 3
	// learnMaxSamples bounds each regime's experience window.
	learnMaxSamples = 2048
	// LearnMaxDist is how far (core.Distance) the nearest recorded probe
	// outcome may be from a new matrix and still steer its shortlist;
	// beyond it the analytical model decides alone. The threshold sits at
	// roughly "same footprint class, similar row profile".
	LearnMaxDist = 0.15
)

// regimeKey partitions experience: a winner measured on one device in one
// RHS regime says nothing about another.
type regimeKey struct {
	device string
	k      int
}

// Learned is one experience base: the per-(device, k) k-NN samples of
// measured probe winners. Safe for concurrent use. Distinct instances
// share nothing, so two sessions with separate journals learn — and
// mispredict — independently.
type Learned struct {
	mu   sync.Mutex
	base map[regimeKey]*Nearest
}

// NewLearned returns an empty experience base.
func NewLearned() *Learned {
	return &Learned{base: map[regimeKey]*Nearest{}}
}

// probeRuns counts micro-probe invocations process-wide; the persistence CI
// gate asserts a warm restart performs zero.
var probeRuns atomic.Int64

// ProbeCount returns how many micro-probe sweeps this process has run.
func ProbeCount() int64 { return probeRuns.Load() }

// regime returns (creating on demand) the experience base for a regime.
func (l *Learned) regime(device string, k int) *Nearest {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := regimeKey{device, k}
	n, ok := l.base[key]
	if !ok {
		n = NewOnline(learnKNN, learnMaxSamples)
		l.base[key] = n
	}
	return n
}

// Len reports how many experience samples the regime holds.
func (l *Learned) Len(device string, k int) int { return l.regime(device, k).Len() }

// Reset drops every in-memory experience sample (tests and benchmark
// harnesses that need a cold selector, and journal re-attachment).
func (l *Learned) Reset() {
	l.mu.Lock()
	l.base = map[regimeKey]*Nearest{}
	l.mu.Unlock()
}

// observe records one measured probe outcome into the in-memory k-NN base.
// A matrix measured again (the same feature vector) replaces its earlier
// sample and becomes the newest — what a superseding decision does to its
// journal line — so re-deciding one matrix never stacks its vote.
func (l *Learned) observe(device string, k int, fv core.FeatureVector, best string, weight float64) {
	l.regime(device, k).observe(Sample{FV: fv, Best: best, Weight: weight}, true)
}

// pick consults the regime's experience base; ok only when a recorded
// outcome lies within LearnMaxDist of the new matrix.
func (l *Learned) pick(device string, k int, fv core.FeatureVector) (string, bool) {
	return l.regime(device, k).PredictNear(fv, LearnMaxDist)
}

// WarmLoad replays the samples a journal's decisions carry into the base,
// oldest measurement first, returning how many were loaded. Called when a
// store is attached so a restarted process resumes with its predecessors'
// measurements. Replayed samples are age-decayed: the newest enters at
// full weight and each experienceHalfLife samples of age halve the vote,
// so stale history biases — not dictates — future shortlists.
func (l *Learned) WarmLoad(st *cache.Store) int {
	if st == nil {
		return 0
	}
	keys, decs := st.Decisions()
	var samples []int // the decisions that carry one
	for i, d := range decs {
		if d.FV != (core.FeatureVector{}) {
			samples = append(samples, i)
		}
	}
	for n, i := range samples {
		age := float64(len(samples) - 1 - n)
		l.observe(keys[i].Device, keys[i].K, decs[i].FV, decs[i].Format, math.Exp2(-age/experienceHalfLife))
	}
	return len(samples)
}

// experienceHalfLife is the age (in sample-carrying decisions) at which a
// replayed sample's vote weight halves. A superseding decision moves to
// the end of the journal's order, so that order IS measurement order: a
// winner measured 256 probes ago —
// possibly under different load, thermals, or a since-changed kernel —
// still votes, but two fresh confirmations outvote it.
const experienceHalfLife = 256
