package main

import (
	"sync"
	"time"

	"repro/internal/matrix"
)

// refSliceLen is how long one reading of the host's speed lasts.
const refSliceLen = 100 * time.Millisecond

// hostRef is the run's yardstick of the host: a plain CSR product written
// here, so that no change to the repository can move it, run over the
// workload's own matrix by as many goroutines as the workload has
// clients, so that it meets the caches, the memory system and the
// neighbours the way the workload does. A shared host's speed drifts by
// tens of per cent over minutes; a reading taken beside every window lets
// each window's numbers be expressed at one fixed host speed.
type hostRef struct {
	m      *matrix.CSR
	x, y   []float64
	bounds []int // row ranges of equal nonzero count, one per goroutine
}

func newHostRef(m *matrix.CSR, x []float64, parts int) *hostRef {
	h := &hostRef{m: m, x: x, y: make([]float64, m.Rows), bounds: make([]int, parts+1)}
	row := 0
	for p := 1; p < parts; p++ {
		target := int32(int64(m.NNZ()) * int64(p) / int64(parts))
		for row < m.Rows && m.RowPtr[row] < target {
			row++
		}
		h.bounds[p] = row
	}
	h.bounds[parts] = m.Rows
	return h
}

// rate reads the host's speed now: every goroutine sweeps its row range
// again and again for refSliceLen, and the result is the nonzeros they
// processed per second together, in Mnnz/s.
func (h *hostRef) rate() float64 {
	parts := len(h.bounds) - 1
	rates := make([]float64, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := h.bounds[p], h.bounds[p+1]
			m, x, y := h.m, h.x, h.y
			nnz := float64(m.RowPtr[hi] - m.RowPtr[lo])
			start := time.Now()
			sweeps := 0
			for {
				for i := lo; i < hi; i++ {
					sum := 0.0
					for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
						sum += m.Val[k] * x[m.ColIdx[k]]
					}
					y[i] = sum
				}
				sweeps++
				if el := time.Since(start); el >= refSliceLen {
					rates[p] = nnz * float64(sweeps) / el.Seconds() / 1e6
					return
				}
			}
		}(p)
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	return sum
}
