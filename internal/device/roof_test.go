package device

import (
	"math"
	"testing"

	"repro/internal/core"
)

func testRoof() Roof {
	return Roof{PeakGFLOPS: 1000, MemBWGBs: 100, LLCBWGBs: 800, LLCBytes: 128 << 20}
}

func fvMB(mb float64) core.FeatureVector {
	rows := int(mb * (1 << 20) / 244) // avg 20 nnz/row
	return core.FeatureVector{Rows: rows, Cols: rows, NNZ: int64(rows * 20),
		MemFootprintMB: mb, AvgNNZPerRow: 20}
}

func TestBoundRegimes(t *testing.T) {
	r := testRoof()
	// Memory-bound region: low intensity.
	if got := r.Bound(0.1, r.MemBWGBs); got != 10 {
		t.Errorf("Bound(0.1) = %g, want 10", got)
	}
	// Compute-bound region: intensity past the ridge.
	if got := r.Bound(100, r.MemBWGBs); got != 1000 {
		t.Errorf("Bound(100) = %g, want peak 1000", got)
	}
}

func TestCSRIntensityBelowOne(t *testing.T) {
	oi := csrIntensity(fvMB(64))
	if oi <= 0 || oi >= 1 {
		t.Errorf("CSR intensity = %g, want in (0,1) per the paper", oi)
	}
	if csrIntensity(core.FeatureVector{}) != 0 {
		t.Error("empty matrix intensity should be 0")
	}
}

func TestLLCBoundAboveMemoryBound(t *testing.T) {
	r := testRoof()
	fv := fvMB(16)
	if r.LLCBound(fv) <= r.MemoryBound(fv) {
		t.Error("LLC roof must sit above the memory roof")
	}
	// Without an LLC bandwidth the LLC bound falls back to memory.
	r.LLCBWGBs = 0
	if r.LLCBound(fv) != r.MemoryBound(fv) {
		t.Error("no-LLC fallback broken")
	}
}

func TestApplicableSwitchesAtCapacity(t *testing.T) {
	r := testRoof() // 128 MB LLC
	small := fvMB(16)
	large := fvMB(1024)
	if got, want := r.Applicable(small), r.LLCBound(small); got != want {
		t.Errorf("small matrix roof = %g, want LLC bound %g", got, want)
	}
	if got, want := r.Applicable(large), r.MemoryBound(large); got != want {
		t.Errorf("large matrix roof = %g, want memory bound %g", got, want)
	}
}

func TestBoundMonotoneInIntensity(t *testing.T) {
	r := testRoof()
	prev := -1.0
	for ai := 0.01; ai < 100; ai *= 2 {
		b := r.Bound(ai, r.MemBWGBs)
		if b < prev {
			t.Fatalf("bound decreased at ai=%g", ai)
		}
		prev = b
	}
	if !math.IsNaN(r.Bound(math.NaN(), r.MemBWGBs)) {
		t.Skip("NaN propagates; nothing to assert")
	}
}
