// Package stats provides the descriptive statistics the paper's figures
// are built from: five-number summaries for boxplots, MAPE/APE validation
// error metrics, win counting for format comparison, and an ASCII boxplot
// renderer for terminal reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary is a five-number summary plus mean and count, one boxplot.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Summarize computes the summary of vs. An empty input returns a zero
// Summary with N = 0.
func Summarize(vs []float64) Summary {
	s := Summary{N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Q1 = Quantile(sorted, 0.25)
	s.Median = Quantile(sorted, 0.5)
	s.Q3 = Quantile(sorted, 0.75)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
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

// Median is a convenience over Summarize for unsorted input.
func Median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return Quantile(sorted, 0.5)
}

// APE returns the absolute percentage error of got against want, in
// percent. A zero want with nonzero got returns +Inf.
func APE(want, got float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

// MAPE returns the mean APE over paired slices, in percent. It panics on
// length mismatch (a programmer error).
func MAPE(want, got []float64) float64 {
	if len(want) != len(got) {
		panic("stats: MAPE length mismatch")
	}
	if len(want) == 0 {
		return 0
	}
	sum := 0.0
	for i := range want {
		sum += APE(want[i], got[i])
	}
	return sum / float64(len(want))
}

// BestAPE returns the smallest APE between want and any candidate — the
// paper's "APE-best" against the closest-performing friend.
func BestAPE(want float64, candidates []float64) float64 {
	best := math.Inf(1)
	for _, c := range candidates {
		if e := APE(want, c); e < best {
			best = e
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	return best
}

// Winners counts, for each configuration key, how often it achieves the
// maximum value across keys per sample. Samples are maps from key to value;
// missing keys don't participate. Returns win percentages per key over the
// number of samples that had at least one participant.
func Winners(samples []map[string]float64) map[string]float64 {
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

// Boxplot renders the summary as a fixed-width ASCII gauge spanning
// [lo, hi], e.g. "  |----[==M==]------|  ". Returns a blank gauge when the
// summary is empty or the range is degenerate.
func Boxplot(s Summary, lo, hi float64, width int) string {
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

// String formats the summary compactly.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// LogTicks returns human-friendly tick labels for a log-scaled gauge from
// lo to hi, used under boxplot columns in reports.
func LogTicks(lo, hi float64, n int) string {
	if n < 2 || hi <= lo || lo <= 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		v := lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.3g", v)
	}
	return b.String()
}
