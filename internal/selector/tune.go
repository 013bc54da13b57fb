package selector

// Micro-autotuning of structural format parameters. The device model and
// probe pick WHICH format to build; the tuner picks the width-dependent
// build inputs (formats.Tuning) of the winner that hard-coded defaults
// used to fix: the BCSR block geometry and the fused SpMM register-tile
// width, both measured on the same row-sampled sub-matrix harness the
// micro-probe uses (timeCandidates). Winners are part of the decision
// (cache.Decision.Tuned), so they are cached, journaled, invalidated and
// forgotten with it, and a matrix pays each sweep once per decision key.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// Autotuned parameter names (the keys of formats.AutoChoice.Tuned).
const (
	// ParamBCSRBlock is the BCSR block geometry, value "BRxBC".
	ParamBCSRBlock = "bcsr.block"
	// ParamSpMMTile is the fused SpMM register-tile width, "4" or "8".
	// Only swept when the dispatched SIMD width is 8 — below that the
	// 8-wide tile never engages and the settings are identical.
	ParamSpMMTile = "spmm.tile"
)

// bcsrShapes are the block geometries the tuner sweeps. 2x2 is the
// default and the only shape with a dispatched micro-kernel; the wider
// shapes trade the SIMD kernel for denser value blocks and fewer index
// loads, which wins on strongly block-structured matrices.
var bcsrShapes = []string{"2x2", "4x4", "2x4", "4x2"}

// autotune derives the Tuning to build the named format with, from the
// parameter groups its builder declares (formats.Builder.Tunables). known
// is the tuning the cached decision already carries ("" on a fresh
// selection): its parameters are recalled, the rest are swept now — on
// matrices large enough to time — so each is measured once per decision. It also
// returns every parameter recalled or swept, for the decision and its
// record. A cancelled ctx skips any sweep not yet known; known winners
// still apply.
func autotune(ctx context.Context, m *matrix.CSR, name string, k int, known string) (formats.Tuning, map[string]string) {
	var t formats.Tuning
	tuned := make(map[string]string)
	b, ok := formats.Lookup(name)
	if !ok || m.NNZ() < autoProbeMinNNZ {
		return t, tuned
	}
	recalled := decodeTuned(known)
	// sweep recalls the parameter's known winner or measures it now: the
	// fastest of values, each built with the tuning with(value) derives.
	sweep := func(param string, values []string, with func(string) formats.Tuning) string {
		v, ok := recalled[param]
		if !ok && ctx.Err() == nil {
			cands := make([]candidate, len(values))
			for i, v := range values {
				cands[i] = candidate{b, with(v)}
			}
			// A sweep cut short by cancellation is not a measurement.
			res, _ := timeCandidates(ctx, m, cands, k)
			if i := fastest(res); i >= 0 && ctx.Err() == nil {
				v = values[i]
			}
		}
		if v != "" {
			tuned[param] = v
		}
		return v
	}

	if b.Tunables&formats.TuneBlock != 0 {
		// A geometry the fill-ratio cap refuses on the sample is skipped.
		shape := sweep(ParamBCSRBlock, bcsrShapes, func(v string) formats.Tuning {
			br, bc, _ := parseBlockShape(v)
			return formats.Tuning{BlockR: br, BlockC: bc}
		})
		if br, bc, err := parseBlockShape(shape); err == nil && shape != "2x2" {
			t.BlockR, t.BlockC = br, bc
		}
	}
	if b.Tunables&formats.TuneTiles != 0 && k >= 8 && simd.Enabled() && simd.Width() >= 8 {
		// The 8-wide register tile on and off, other tuning as chosen; a
		// tie keeps the wide tile (one kernel call covers two narrow ones).
		tile := sweep(ParamSpMMTile, []string{"8", "4"}, func(v string) formats.Tuning {
			tt := t
			tt.NarrowTiles = v == "4"
			return tt
		})
		t.NarrowTiles = tile == "4"
	}
	return t, tuned
}

// parseBlockShape parses a "BRxBC" tune value.
func parseBlockShape(s string) (br, bc int, err error) {
	if _, err = fmt.Sscanf(s, "%dx%d", &br, &bc); err != nil {
		return 0, 0, err
	}
	if br < 1 || bc < 1 {
		return 0, 0, fmt.Errorf("selector: bad block shape %q", s)
	}
	return br, bc, nil
}

// encodeTuned renders a parameter map as cache.Decision.Tuned carries it:
// "param=value" pairs sorted by param, space-separated.
func encodeTuned(tuned map[string]string) string {
	pairs := make([]string, 0, len(tuned))
	for _, p := range slices.Sorted(maps.Keys(tuned)) {
		pairs = append(pairs, p+"="+tuned[p])
	}
	return strings.Join(pairs, " ")
}

// decodeTuned is encodeTuned's inverse; malformed pairs are dropped.
func decodeTuned(s string) map[string]string {
	tuned := make(map[string]string)
	for _, pair := range strings.Fields(s) {
		if p, v, ok := strings.Cut(pair, "="); ok {
			tuned[p] = v
		}
	}
	return tuned
}
