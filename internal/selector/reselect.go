package selector

import (
	"context"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// Reselect re-runs automatic format selection after structure drift: the
// compactor of an updatable matrix folds its delta overlay into a fresh
// CSR whose structure — and therefore best format — may differ from the
// base it replaces. Every decision for the predecessor fingerprint is
// invalidated first — all (device, k, shards) regimes at once, each with
// its tuning and sample, in the cache and in the journal behind it; they
// all measured the dead structure — then BuildAuto selects for the
// successor matrix. Returns the built choice and how many stale decisions were
// dropped.
//
// The cheap-re-decision contract rides on the persistence layer: when the
// successor structure has been seen before — a matrix compacting back to
// a shape a prior process already probed, replayed from the journal — the
// decision comes from the cache with zero micro-probes, exactly like any
// warm restart.
func Reselect(oldFingerprint uint64, m *matrix.CSR, o AutoOptions) (*formats.Auto, int, error) {
	return ReselectCtx(context.Background(), oldFingerprint, m, o)
}

// ReselectCtx is Reselect honoring a context, for compaction rebuilds
// that must stop on shutdown: stale decisions for the dead fingerprint
// are invalidated unconditionally (they are wrong regardless of whether
// this rebuild completes), then BuildAutoCtx selects under ctx.
func ReselectCtx(ctx context.Context, oldFingerprint uint64, m *matrix.CSR, o AutoOptions) (*formats.Auto, int, error) {
	dropped := 0
	if dc := o.state().Cache; dc != nil {
		dropped = dc.InvalidateFingerprint(oldFingerprint)
	}
	f, err := BuildAutoCtx(ctx, m, o)
	return f, dropped, err
}
