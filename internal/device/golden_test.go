package device

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simd"
)

// testbedGolden hashes every bit of every simulated prediction: the nine
// testbeds x dataset.Medium.Sample(400, 7) x k in {1, 8} x each testbed's
// formats, jittered (EstimateMulti) and central (RankMulti).
func testbedGolden() string {
	h := sha256.New()
	put := func(r Result) {
		var b [8]byte
		for _, v := range []float64{r.GFLOPS, r.Watts, float64(r.Bottleneck)} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte(r.Reason))
		if r.Feasible {
			h.Write([]byte{1})
		}
	}
	for _, s := range Testbeds() {
		for _, fv := range dataset.Medium.Sample(400, 7) {
			for _, k := range []int{1, 8} {
				for _, f := range s.Formats {
					put(s.EstimateMulti(fv, f, k))
					put(s.RankMulti(fv, f, k))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTestbedGolden pins the simulated half of the model: the host's
// measured in-core table and its overlap rule run through the same
// expressions, and must not move a bit of any Table II prediction. The
// hashes were computed on the parent commit (6e44599), one per dispatch
// tier because SELL-C-s's trait estimate follows the live tier
// (DefaultChunkC); the scalar and avx512 tiers build the same chunk, so
// their hashes agree. MKL-IE's estimate prices the dispatched CSR kernel
// on every tier.
func TestTestbedGolden(t *testing.T) {
	want := map[string]string{
		"avx512": "a83dcc36985ef540d72b11f77e2f0f99a591288200276f13e6d28a34aac0ac24",
		"avx2":   "025194783e1e8ca43291c9ff5bf525a8bb9a5cfda08f7bf6c7f6b9ab24a44acd",
		"scalar": "a83dcc36985ef540d72b11f77e2f0f99a591288200276f13e6d28a34aac0ac24",
	}[simd.Level()]
	if got := testbedGolden(); got != want {
		t.Errorf("testbed predictions moved on the %s tier: hash %s, want %s", simd.Level(), got, want)
	}
}
