package bench

import (
	"math"
	"sort"
)

// The descriptive statistics the paper's figures are built from:
// five-number summaries for boxplots, APE validation error, win counting
// for format comparison, and an ASCII gauge for terminal reports.

// summary is a five-number summary plus count, one boxplot.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// summarize computes the summary of vs. An empty input returns a zero
// summary with N = 0.
func summarize(vs []float64) summary {
	s := summary{N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Q1 = quantile(sorted, 0.25)
	s.Median = quantile(sorted, 0.5)
	s.Q3 = quantile(sorted, 0.75)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice using linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// ape returns the absolute percentage error of got against want, in
// percent. A zero want with nonzero got returns +Inf.
func ape(want, got float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

// bestAPE returns the smallest APE between want and any candidate — the
// paper's "APE-best" against the closest-performing friend.
func bestAPE(want float64, candidates []float64) float64 {
	best := math.Inf(1)
	for _, c := range candidates {
		if e := ape(want, c); e < best {
			best = e
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	return best
}

// winners counts, for each configuration key, how often it achieves the
// maximum value across keys per sample. Samples are maps from key to value;
// missing keys don't participate. Returns win percentages per key over the
// number of samples that had at least one participant.
func winners(samples []map[string]float64) map[string]float64 {
	wins := map[string]float64{}
	counted := 0
	for _, sample := range samples {
		bestKey := ""
		best := math.Inf(-1)
		for k, v := range sample {
			if v > best || (v == best && k < bestKey) {
				best = v
				bestKey = k
			}
		}
		if bestKey == "" {
			continue
		}
		counted++
		wins[bestKey]++
	}
	if counted == 0 {
		return wins
	}
	for k := range wins {
		wins[k] = wins[k] / float64(counted) * 100
	}
	return wins
}

// boxplot renders the summary as a fixed-width ASCII gauge spanning
// [lo, hi] linearly, e.g. "  |----[==M==]------|  ". Returns a blank gauge
// when the summary is empty or the range is degenerate.
func boxplot(s summary, lo, hi float64, width int) string {
	if width < 10 {
		width = 10
	}
	cells := make([]rune, width)
	for i := range cells {
		cells[i] = ' '
	}
	if s.N == 0 || hi <= lo {
		return string(cells)
	}
	at := func(v float64) int {
		t := (v - lo) / (hi - lo)
		p := int(t * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	for i := at(s.Min); i <= at(s.Max); i++ {
		cells[i] = '-'
	}
	for i := at(s.Q1); i <= at(s.Q3); i++ {
		cells[i] = '='
	}
	cells[at(s.Min)] = '|'
	cells[at(s.Max)] = '|'
	cells[at(s.Median)] = 'M'
	return string(cells)
}
