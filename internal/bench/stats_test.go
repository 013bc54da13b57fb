package bench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("wrong summary %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles %g, %g, want 2, 4", s.Q1, s.Q3)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := summarize(nil); s.N != 0 {
		t.Error("empty summary should have N=0")
	}
	s := summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("singleton summary %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("summarize mutated its input")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := quantile(sorted, 0.5); got != 5 {
		t.Errorf("quantile(0.5) = %g, want 5", got)
	}
	if got := quantile(sorted, 0); got != 0 {
		t.Errorf("quantile(0) = %g", got)
	}
	if got := quantile(sorted, 1); got != 10 {
		t.Errorf("quantile(1) = %g", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestMedianUnsorted(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

func TestAPE(t *testing.T) {
	if got := ape(100, 110); math.Abs(got-10) > 1e-12 {
		t.Errorf("ape = %g, want 10", got)
	}
	if got := ape(0, 0); got != 0 {
		t.Errorf("ape(0,0) = %g", got)
	}
	if !math.IsInf(ape(0, 5), 1) {
		t.Error("ape with zero want should be +Inf")
	}
}

func TestBestAPE(t *testing.T) {
	got := bestAPE(100, []float64{50, 104, 200})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("bestAPE = %g, want 4", got)
	}
	if bestAPE(100, nil) != 0 {
		t.Error("no candidates should give 0")
	}
}

func TestWinners(t *testing.T) {
	samples := []map[string]float64{
		{"a": 3, "b": 1},
		{"a": 1, "b": 2},
		{"a": 5, "b": 4},
		{},
	}
	w := winners(samples)
	if math.Abs(w["a"]-200.0/3) > 1e-9 {
		t.Errorf("a wins %.1f%%, want 66.7%%", w["a"])
	}
	if math.Abs(w["b"]-100.0/3) > 1e-9 {
		t.Errorf("b wins %.1f%%, want 33.3%%", w["b"])
	}
}

func TestWinnersTieBreaksDeterministically(t *testing.T) {
	samples := []map[string]float64{{"x": 1, "y": 1}}
	w := winners(samples)
	if w["x"] != 100 || w["y"] != 0 {
		t.Errorf("tie should go to the lexicographically first key: %v", w)
	}
}

func TestBoxplotRendering(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	plot := boxplot(s, 0, 6, 40)
	if len(plot) != 40 {
		t.Fatalf("width %d, want 40", len(plot))
	}
	if !strings.Contains(plot, "M") || !strings.Contains(plot, "=") || !strings.Contains(plot, "|") {
		t.Errorf("boxplot missing glyphs: %q", plot)
	}
	if blank := boxplot(summary{}, 0, 1, 20); strings.TrimSpace(blank) != "" {
		t.Errorf("empty summary should render blank, got %q", blank)
	}
}

// Property: min <= q1 <= median <= q3 <= max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Drop non-finite values and magnitudes whose interpolation could overflow.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e300 {
				vs = append(vs, v/1e10)
			}
		}
		s := summarize(vs)
		if s.N == 0 {
			return true
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
