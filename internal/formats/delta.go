package formats

import (
	"context"

	"repro/internal/matrix"
)

// DeltaCOO is the fused delta pass of the update layer: a sorted additive
// COO overlay whose kernel accumulates onto an existing y through the same
// accumulate-mode COO dispatch HYB uses for its spill part. A base+delta
// multiply is therefore the base format's own sweep plus one nnz-parallel
// accumulation with segment carries — never a second full pass over y.
type DeltaCOO struct {
	coo *COO
}

// NewDeltaCOO wraps a compacted (row-major sorted, duplicate-free)
// additive overlay. The overlay's arrays are retained, not copied; the
// caller must treat them as immutable for the wrapper's lifetime — the
// update layer publishes each frozen overlay once and never writes to it
// again.
func NewDeltaCOO(o *matrix.COO) *DeltaCOO {
	return &DeltaCOO{coo: newCOOFromParts(o.Rows, o.Cols, o.RowIdx, o.ColIdx, o.Val, true)}
}

// Len returns the overlay's entry count.
func (d *DeltaCOO) Len() int { return len(d.coo.val) }

// Bytes returns the overlay's storage footprint.
func (d *DeltaCOO) Bytes() int64 { return d.coo.Bytes() }

// Add accumulates overlay times the k-wide x block onto y (y is NOT
// zeroed), with Format.Apply's argument, cancellation and containment
// contract. Its entry segments are cut at build, so the answer is one
// per (overlay, x) whatever the lane count or k.
func (d *DeltaCOO) Add(ctx context.Context, y, x []float64, k, workers int) error {
	return d.coo.Apply(ctx, y, x, k, workers)
}
