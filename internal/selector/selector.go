// Package selector implements a feature-based storage-format selector, the
// application the paper positions its feature set for ("a rather high
// number of features have been used to train proper predictors for SpMV
// performance", Section III-A — this package shows the minimal five-feature
// set suffices for the selection task).
//
// Two selectors are provided:
//
//   - Rules: a hand-written decision list encoding the paper's takeaways
//     (footprint picks the bandwidth regime, skew picks the balancing
//     discipline, locality picks compressed formats);
//   - Nearest: a k-nearest-neighbor predictor trained on labeled feature
//     points (labels from the device model or from native measurements).
//
// Accuracy is judged against exhaustive search with the usual metric for
// format selection: the performance retained by the predicted format
// relative to the best format (>= 90% is competitive in the literature).
package selector

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/formats"
)

// rulesOrder returns the decision list's format preference order for the
// feature point, encoding the paper's qualitative takeaways: footprint
// picks the bandwidth regime, skew picks the balancing discipline,
// locality picks compressed formats.
func rulesOrder(fv core.FeatureVector) []string {
	switch {
	case fv.SkewCoeff > 500:
		// Heavy imbalance: item-granular formats first (Takeaway 7).
		return []string{"Merge-CSR", "CSR5", "MKL-IE", "Bal-CSR", "COO", "VSL"}
	case fv.AvgNumNeigh >= 1.4 && fv.MemFootprintMB >= 256:
		// Large clustered matrices: compression attacks the bandwidth
		// bottleneck (SparseX's niche).
		return []string{"SparseX", "SELL-C-s", "MKL-IE", "Bal-CSR", "VSL"}
	case fv.AvgNNZPerRow < 8:
		// Short rows: avoid padding-happy formats; balanced CSR variants
		// amortize row overheads best.
		return []string{"Merge-CSR", "MKL-IE", "Bal-CSR", "CSR5", "Naive-CSR", "COO", "VSL"}
	case fv.SkewCoeff <= 100 && fv.AvgNNZPerRow >= 50:
		// Long balanced rows: vectorized/ELL-style formats shine.
		return []string{"SELL-C-s", "Vec-CSR", "MKL-IE", "HYB", "Bal-CSR", "VSL"}
	default:
		return []string{"MKL-IE", "Bal-CSR", "CSR5", "Merge-CSR", "Naive-CSR", "VSL"}
	}
}

// pickFrom returns the first name in order the device offers and the
// filter (if any) accepts; "" when none qualifies.
func pickFrom(spec device.Spec, order []string, accept func(string) bool) string {
	for _, n := range order {
		if slices.Contains(spec.Formats, n) && (accept == nil || accept(n)) {
			return n
		}
	}
	return ""
}

// Rules picks a format for the device using the paper's qualitative
// takeaways. It needs no training and serves as the interpretable baseline.
func Rules(spec device.Spec, fv core.FeatureVector) string {
	if n := pickFrom(spec, rulesOrder(fv), nil); n != "" {
		return n
	}
	return spec.Formats[0]
}

// RulesK picks a format for the k-wide SpMM regime: the same decision list
// as Rules, but for k > 1 formats with fused MultiplyMany kernels are
// preferred within each family — a fused format's rate grows with k while
// a by-column-fallback format keeps its single-vector rate, so under SpMM
// the fused runner-up usually beats the fallback front-runner (the
// win-rate flip PR 3 measured for ELL and Merge-CSR).
func RulesK(spec device.Spec, fv core.FeatureVector, k int) string {
	order := rulesOrder(fv)
	if k > 1 {
		if n := pickFrom(spec, order, formats.FusedMulti); n != "" {
			return n
		}
	}
	if n := pickFrom(spec, order, nil); n != "" {
		return n
	}
	return spec.Formats[0]
}

// tieMargin is how far below the model's best estimate a candidate may sit
// and still count as tied with it: the host's class rates are re-measured
// by every process and move one format's estimate against another's by up
// to 3 % (docs/BENCHMARKS.md); a ranking decided by less would host one
// matrix behind different formats on different days.
const tieMargin = 0.05

// prefer orders two formats the evidence cannot tell apart by what is known
// without measuring: a fused k > 1 kernel first (a served matrix gets
// batched), then the smaller footprint, then an inspector, then the name.
func prefer(fv core.FeatureVector, a, b string) bool {
	if fa, fb := formats.FusedMulti(a), formats.FusedMulti(b); fa != fb {
		return fa
	}
	ta, tb := formats.EstimateTraits(a, fv), formats.EstimateTraits(b, fv)
	if ta.MetaBytesPerNNZ != tb.MetaBytesPerNNZ {
		return ta.MetaBytesPerNNZ < tb.MetaBytesPerNNZ
	}
	if ta.Preprocessed != tb.Preprocessed {
		return ta.Preprocessed
	}
	return a < b
}

// Shortlist ranks the device's formats for the k-regime by the model's
// noise-free central estimate (device.Spec.RankMulti — the jittered
// variant would scramble near-ties), the candidates within tieMargin of the
// best ordered among themselves by prefer, and returns the top-n feasible
// names, best first. The RulesK pick is appended when the model ranking
// misses it, so the shortlist always carries one entry from the
// interpretable decision list — cheap insurance against a model blind spot
// when the shortlist is probed.
func Shortlist(spec device.Spec, fv core.FeatureVector, k, n int) []string {
	n = max(n, 1)
	type cand struct {
		name   string
		gflops float64
	}
	var cands []cand
	for _, f := range spec.Formats {
		r := spec.RankMulti(fv, f, k)
		if !r.Feasible {
			continue
		}
		cands = append(cands, cand{f, r.GFLOPS})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gflops != cands[b].gflops {
			return cands[a].gflops > cands[b].gflops
		}
		return prefer(fv, cands[a].name, cands[b].name)
	})
	tied := 0
	for tied < len(cands) && cands[tied].gflops >= (1-tieMargin)*cands[0].gflops {
		tied++
	}
	sort.SliceStable(cands[:tied], func(a, b int) bool { return prefer(fv, cands[a].name, cands[b].name) })
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]string, 0, n+1)
	for _, c := range cands {
		out = append(out, c.name)
	}
	if len(out) > 0 {
		if ruled := RulesK(spec, fv, k); !slices.Contains(out, ruled) && spec.RankMulti(fv, ruled, k).Feasible {
			out = append(out, ruled)
		}
	}
	return out
}

// Sample is one labeled training point. Weight scales its vote in the
// k-NN majority (<= 0 means 1): the warm-load path ages journal replays so
// a stale measured winner cannot outvote fresh evidence forever, while
// live Observe calls enter at full weight.
type Sample struct {
	FV     core.FeatureVector
	Best   string
	Weight float64
}

// Nearest is a k-nearest-neighbor format selector over the normalized
// feature space. It is safe for concurrent Predict/Observe: the online
// selection path feeds probe outcomes in (Observe) while other goroutines
// consult it.
type Nearest struct {
	mu      sync.RWMutex
	k       int
	samples []Sample
	limit   int // Observe drops the oldest sample past this bound (0: unbounded)
	dropped int
}

// Train builds a k-NN selector by labelling the given feature points with
// the device model's best format. k defaults to 5. Points the device model
// cannot label (no feasible format, e.g. past a capacity gate) are
// dropped; Dropped reports how many, so a thin training set is visible to
// the caller instead of silently degrading accuracy.
func Train(spec device.Spec, points []core.FeatureVector, k int) *Nearest {
	return TrainK(spec, points, k, 1)
}

// TrainK is Train on the k-wide SpMM axis: labels come from
// device.Spec.BestFormatK, so a selector trained with rhs = 8 learns the
// k = 8 win-rate ordering (fused kernels promoted, fallback formats
// demoted) rather than the single-vector one.
func TrainK(spec device.Spec, points []core.FeatureVector, k, rhs int) *Nearest {
	if k <= 0 {
		k = 5
	}
	rhs = max(rhs, 1)
	n := &Nearest{k: k}
	for _, fv := range points {
		if name, _, ok := spec.BestFormatK(fv, rhs); ok {
			n.samples = append(n.samples, Sample{FV: fv, Best: name})
		} else {
			n.dropped++
		}
	}
	return n
}

// Dropped returns how many training points the device model could not
// label (and were therefore excluded from the training set).
func (n *Nearest) Dropped() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dropped
}

// TrainSamples builds the selector from pre-labeled samples (e.g. native
// measurements).
func TrainSamples(samples []Sample, k int) *Nearest {
	if k <= 0 {
		k = 5
	}
	return &Nearest{k: k, samples: samples}
}

// NewOnline returns an empty selector meant to be fed incrementally via
// Observe. limit bounds the sample window (oldest dropped first; 0 keeps
// everything) so a long-running server's experience base stays a working
// set instead of an unbounded history.
func NewOnline(k, limit int) *Nearest {
	if k <= 0 {
		k = 5
	}
	return &Nearest{k: k, limit: limit}
}

// Observe adds one labeled point to the training set — the online-learning
// hook: every measured probe winner lands here, so the k-NN ranking
// sharpens with every decision the subsystem makes.
func (n *Nearest) Observe(s Sample) { n.observe(s, false) }

// observe is Observe; with replace, an earlier sample of the same feature
// vector — the same matrix, measured again — is dropped first.
func (n *Nearest) observe(s Sample, replace bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if replace {
		n.samples = slices.DeleteFunc(n.samples, func(o Sample) bool { return o.FV == s.FV })
	}
	n.samples = append(n.samples, s)
	if n.limit > 0 && len(n.samples) > n.limit {
		n.samples = n.samples[len(n.samples)-n.limit:]
	}
}

// Len returns the training-set size.
func (n *Nearest) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.samples)
}

// Predict returns the majority format among the k nearest training points,
// with ties broken by prefer. ok is false with no training data.
func (n *Nearest) Predict(fv core.FeatureVector) (string, bool) {
	name, _, ok := n.predict(fv)
	return name, ok
}

// PredictNear is Predict gated by relevance: it answers only when the
// nearest training point lies within maxDist in feature space. Experience
// generalizes to matrices like the ones actually measured; far from any
// sample, the caller should fall back to the analytical model instead of
// extrapolating.
func (n *Nearest) PredictNear(fv core.FeatureVector, maxDist float64) (string, bool) {
	name, d, ok := n.predict(fv)
	if !ok || d > maxDist {
		return "", false
	}
	return name, true
}

// predict returns the k-NN majority vote and the distance to the single
// nearest sample.
func (n *Nearest) predict(fv core.FeatureVector) (string, float64, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.samples) == 0 {
		return "", 0, false
	}
	type cand struct {
		d    float64
		name string
		w    float64
	}
	cands := make([]cand, len(n.samples))
	for i, s := range n.samples {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		cands[i] = cand{core.Distance(fv, s.FV), s.Best, w}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return prefer(fv, cands[a].name, cands[b].name)
	})
	k := n.k
	if k > len(cands) {
		k = len(cands)
	}
	votes := map[string]float64{}
	for _, c := range cands[:k] {
		votes[c.name] += c.w
	}
	best, bestVotes := "", -1.0
	for name, v := range votes {
		if v > bestVotes || (v == bestVotes && prefer(fv, name, best)) {
			best, bestVotes = name, v
		}
	}
	return best, cands[0].d, true
}

// Evaluation summarizes selector quality over a test set.
type Evaluation struct {
	N           int     // evaluated points
	Exact       float64 // fraction predicting exactly the best format
	Retained    float64 // mean performance retained vs the best format
	RetainedP10 float64 // 10th percentile of retained performance
}

// Evaluate scores a selector function against exhaustive search on the
// device model.
func Evaluate(spec device.Spec, points []core.FeatureVector, predict func(core.FeatureVector) string) Evaluation {
	return EvaluateK(spec, points, 1, predict)
}

// EvaluateK scores a selector function for the k-wide SpMM regime: the
// ground truth is device.Spec.BestFormatK and predictions are rated at
// the same k, so the score reflects the regime the selector targets.
func EvaluateK(spec device.Spec, points []core.FeatureVector, k int, predict func(core.FeatureVector) string) Evaluation {
	var ev Evaluation
	var retained []float64
	for _, fv := range points {
		bestName, best, ok := spec.BestFormatK(fv, k)
		if !ok || best.GFLOPS <= 0 {
			continue
		}
		name := predict(fv)
		got := spec.EstimateMulti(fv, name, k)
		if !got.Feasible {
			retained = append(retained, 0)
			ev.N++
			continue
		}
		if name == bestName {
			ev.Exact++
		}
		retained = append(retained, got.GFLOPS/best.GFLOPS)
		ev.N++
	}
	if ev.N == 0 {
		return ev
	}
	ev.Exact /= float64(ev.N)
	sum := 0.0
	for _, r := range retained {
		sum += r
	}
	ev.Retained = sum / float64(len(retained))
	sort.Float64s(retained)
	// A true 10th percentile needs at least 10 samples; below that, report
	// the minimum — the pessimistic reading of a thin test set — instead of
	// an index that silently aliases a higher percentile.
	if len(retained) < 10 {
		ev.RetainedP10 = retained[0]
	} else {
		ev.RetainedP10 = retained[len(retained)/10]
	}
	return ev
}
