package selector

// Micro-autotuning of structural format parameters. The device model and
// probe pick WHICH format to build; the tuner picks the width-dependent
// build inputs (formats.Tuning) of the winner that hard-coded defaults
// used to fix: the BCSR block geometry and the fused SpMM register-tile
// width, both measured on the same row-sampled sub-matrix harness the
// micro-probe uses. Winners persist through the journal as "autotune"
// records keyed by (fingerprint, device, k, parameter), so a matrix pays
// each sweep once per machine context.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/simd"
)

// Autotuned parameter names (cache.TuneKey.Param).
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
var bcsrShapes = []struct {
	br, bc int
	name   string
}{
	{2, 2, "2x2"}, {4, 4, "4x4"}, {2, 4, "2x4"}, {4, 2, "4x2"},
}

// autotune derives the Tuning to build the named format with, from the
// parameter groups its builder declares (formats.Builder.Tunables): the
// timed sweeps consult (and feed) the tune cache so each is measured once
// per (fingerprint, device, k), and run only on matrices large enough to
// time. It also returns the swept parameter map for the decision record. A
// cancelled ctx skips any sweep not yet cached; already-known winners
// still apply.
func autotune(ctx context.Context, m *matrix.CSR, name, dev string, k int, tc *cache.TuneCache) (formats.Tuning, map[string]string) {
	var t formats.Tuning
	tuned := make(map[string]string)
	b, ok := formats.Lookup(name)
	if !ok {
		return t, tuned
	}
	fp := m.Fingerprint()
	// sweep recalls the parameter's journaled winner or measures it now.
	sweep := func(param string, measure func() string) string {
		key := cache.TuneKey{Fingerprint: fp, Device: dev, K: k, Param: param}
		v, ok := tc.Get(key)
		if !ok && ctx.Err() == nil {
			if v = measure(); v != "" {
				tc.Put(key, v)
			}
		}
		if v != "" {
			tuned[param] = v
		}
		return v
	}

	timed := m.NNZ() >= autoProbeMinNNZ
	if timed && b.Tunables&formats.TuneBlock != 0 {
		shape := sweep(ParamBCSRBlock, func() string { return tuneBlockShape(ctx, m, b, k) })
		if shape != "" && shape != "2x2" {
			if br, bc, err := parseBlockShape(shape); err == nil {
				t.BlockR, t.BlockC = br, bc
			}
		}
	}
	if timed && b.Tunables&formats.TuneTiles != 0 && k >= 8 && simd.Enabled() && simd.Width() >= 8 {
		tile := sweep(ParamSpMMTile, func() string { return tuneSpMMTile(ctx, m, b, t, k) })
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

// tuneBlockShape times each block geometry on the row-sampled sub-matrix
// (the probe harness: warmed runs, adaptive iteration, min over rounds)
// and returns the winner's name, or "" when no shape builds.
func tuneBlockShape(ctx context.Context, m *matrix.CSR, b formats.Builder, k int) string {
	sub := m.RowSample(DefaultProbeRows)
	x := matrix.RandomVector(sub.Cols*k, 9001)
	y := make([]float64, sub.Rows*k)
	best := math.Inf(1)
	winner := ""
	for _, s := range bcsrShapes {
		if ctx.Err() != nil {
			break
		}
		f, err := b.BuildTuned(sub, formats.Tuning{BlockR: s.br, BlockC: s.bc})
		if err != nil {
			continue // fill-ratio cap refused this geometry on the sample
		}
		if ns, err := timeApply(ctx, f, y, x, k, defaultProbeMinTime, defaultProbeRounds); err == nil && ns < best {
			best = ns
			winner = s.name
		}
	}
	return winner
}

// tuneSpMMTile times the format's fused SpMM kernel on the sub-matrix,
// built with the 8-wide register tile on and off (other tuning as given),
// returning "8" or "4" (ties keep the wide tile: one kernel call covers
// two narrow ones).
func tuneSpMMTile(ctx context.Context, m *matrix.CSR, b formats.Builder, t formats.Tuning, k int) string {
	sub := m.RowSample(DefaultProbeRows)
	x := matrix.RandomVector(sub.Cols*k, 9001)
	y := make([]float64, sub.Rows*k)
	var ns [2]float64 // wide, narrow
	for i := range ns {
		t.NarrowTiles = i == 1
		f, err := b.BuildTuned(sub, t)
		if err != nil {
			return ""
		}
		if ns[i], err = timeApply(ctx, f, y, x, k, defaultProbeMinTime, defaultProbeRounds); err != nil {
			return ""
		}
	}
	if ns[0] <= ns[1] {
		return "8"
	}
	return "4"
}
