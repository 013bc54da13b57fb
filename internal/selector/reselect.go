package selector

import (
	"context"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// ReselectCtx re-runs automatic format selection after structure drift:
// the compactor of an updatable matrix folds its delta overlay into a
// fresh CSR whose structure — and therefore best format — may differ from
// the base it replaces. Every decision for the predecessor fingerprint is
// invalidated first — all (device, k) regimes at once, each with its
// sample, in the cache and in the journal behind it; they all
// measured the dead structure, so they go whether or not this rebuild
// completes — then BuildAutoCtx selects for the successor matrix under
// ctx, so a compaction rebuild stops on shutdown. Returns the built choice
// and how many stale decisions were dropped.
//
// The cheap-re-decision contract rides on the persistence layer: when the
// successor structure has been seen before — a matrix compacting back to
// a shape a prior process already probed, loaded from the journal — the
// decision comes from the cache with zero micro-probes, exactly like any
// warm restart.
func ReselectCtx(ctx context.Context, oldFingerprint uint64, m *matrix.CSR, o AutoOptions) (*formats.Auto, int, error) {
	dropped := 0
	if o.Cache != nil {
		dropped = o.Cache.InvalidateFingerprint(oldFingerprint)
	}
	f, err := BuildAutoCtx(ctx, m, o)
	return f, dropped, err
}
