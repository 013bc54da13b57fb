package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the input.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest sample with at least p of the samples at
// or below it. Nearest-rank never interpolates, so a reported latency is
// always one a real operation had. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for empty input.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is one slice of the timed phase: how many operations (and how
// many of them multiplies) completed in how much wall time.
type window struct {
	Ops        int     `json:"ops"`
	Multiplies int     `json:"multiplies"`
	Seconds    float64 `json:"seconds"`
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// the spread -compare prints is the one the acceptance criterion is
// checked with. Fewer than two samples yield (v0, v0).
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the inter-quartile distance as a share of the median,
// the run-to-run spread a bound is compared against. Fewer than two
// samples have no spread (0).
func spreadShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(med)
}
