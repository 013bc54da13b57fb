package selector

// Micro-autotuning of structural format parameters. The device model and
// probe pick WHICH format to build; the tuner picks the width-dependent
// build inputs (formats.Tuning) of the winner that hard-coded defaults
// used to fix: the BCSR block geometry and the fused SpMM register-tile
// width, both measured on the same row-sampled sub-matrix harness the
// micro-probe uses, plus the Vec-CSR wide-row cutoff, derived (not timed)
// from the sampled row-length distribution. Winners persist through the
// journal as "autotune" records keyed by (fingerprint, device, k,
// parameter), so a matrix pays each sweep once per machine context.

import (
	"context"
	"fmt"
	"math"
	"sort"

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

// vecRowLenSamples bounds the stride sample of the row-length
// distribution the wide-row inspector reads.
const vecRowLenSamples = 4096

// autotune derives the Tuning to build the named format with, from the
// parameter groups its builder declares (formats.Builder.Tunables): the
// timed sweeps consult (and feed) the tune cache so each is measured once
// per (fingerprint, device, k), and run only on matrices large enough to
// time; the wide-row cutoff is derived from the row lengths, never timed.
// It also returns the swept parameter map for the decision record. A
// cancelled ctx skips any sweep not yet cached; already-known winners
// still apply.
func autotune(ctx context.Context, m *matrix.CSR, name, dev string, k, sampleRows int, tc *cache.TuneCache) (formats.Tuning, map[string]string) {
	var t formats.Tuning
	tuned := make(map[string]string)
	b, ok := formats.Lookup(name)
	if !ok {
		return t, tuned
	}
	fp := m.Fingerprint()
	if sampleRows <= 0 {
		sampleRows = DefaultProbeRows
	}
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
		shape := sweep(ParamBCSRBlock, func() string { return tuneBlockShape(ctx, m, b, k, sampleRows) })
		if shape != "" && shape != "2x2" {
			if br, bc, err := parseBlockShape(shape); err == nil {
				t.BlockR, t.BlockC = br, bc
			}
		}
	}
	if timed && b.Tunables&formats.TuneTiles != 0 && k >= 8 && simd.Enabled() && simd.Width() >= 8 {
		tile := sweep(ParamSpMMTile, func() string { return tuneSpMMTile(ctx, m, b, t, k, sampleRows) })
		t.NarrowTiles = tile == "4"
	}
	if b.Tunables&formats.TuneWideRows != 0 {
		t.WideRowMin = vecWideRowMinFor(m)
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
func tuneBlockShape(ctx context.Context, m *matrix.CSR, b formats.Builder, k, sampleRows int) string {
	sub := m.RowSample(sampleRows)
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
func tuneSpMMTile(ctx context.Context, m *matrix.CSR, b formats.Builder, t formats.Tuning, k, sampleRows int) string {
	sub := m.RowSample(sampleRows)
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

// vecWideRowMinFor derives the vectorized-CSR wide-path cutoff from a
// stride sample of the matrix's row-length distribution: the
// 8-accumulator path only pays off when rows are long enough to amortize
// its reduction, so the cutoff follows the sampled 90th-percentile row
// length (4x p90, clamped to [128, 512] — the upper clamp is the measured
// x86 default, see formats.Tuning.WideRowMin). Matrices whose long tail
// already clears the default keep it; uniformly short-row matrices lower
// the cutoff so their rare wide rows still take the wide path.
func vecWideRowMinFor(m *matrix.CSR) int {
	rows := m.Rows
	if rows == 0 {
		return 0
	}
	stride := rows/vecRowLenSamples + 1
	lens := make([]int, 0, rows/stride+1)
	for i := 0; i < rows; i += stride {
		lens = append(lens, int(m.RowPtr[i+1]-m.RowPtr[i]))
	}
	sort.Ints(lens)
	p90 := lens[len(lens)*9/10]
	cut := 4 * p90
	if cut > 512 {
		cut = 512
	}
	if cut < 128 {
		cut = 128
	}
	return cut
}
