package selector

import (
	"context"
	"testing"
)

// TestProbeHandsBackFullMatrixBuild: when the probe's row budget covers the
// whole matrix, the candidates it timed were built on the matrix itself,
// and the winner's instance comes back for BuildAuto to serve instead of
// building the format a second time; above the budget nothing comes back.
func TestProbeHandsBackFullMatrixBuild(t *testing.T) {
	names := []string{"MKL-IE", "CSR5"}
	small := genMatrix(t, DefaultProbeRows, 12, 0, 78)
	winner, built, ns := probe(context.Background(), small, names, 1)
	if winner == "" || built == nil || built.Name() != winner || len(ns) != len(names) {
		t.Fatalf("probe of a matrix within the row budget: winner %q, built %v, %d timings", winner, built, len(ns))
	}
	if built.Rows() != small.Rows || built.NNZ() != int64(small.NNZ()) {
		t.Errorf("handed-back %s has %d rows and %d entries, want the full %d and %d", winner, built.Rows(), built.NNZ(), small.Rows, small.NNZ())
	}

	large := genMatrix(t, DefaultProbeRows+1000, 12, 0, 79)
	if winner, built, _ := probe(context.Background(), large, names, 1); winner == "" || built != nil {
		t.Errorf("probe of a matrix above the row budget: winner %q, built %v; want a winner and no instance", winner, built)
	}
}
