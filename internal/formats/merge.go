package formats

import (
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simd"
)

// MergeCSR is the Merrill-Garland merge-based CSR SpMV (SC'16): standard CSR
// storage, but the kernel splits the combined (row-ends + nonzeros) merge
// path into equal diagonals, so even a single giant row is divided between
// workers. The diagonals are its units: carryUnit items each, searched once
// at build. A row that a diagonal boundary cuts is stored by the diagonal
// it starts in; every later piece goes to its diagonal's carry slot, added
// on serially afterwards in diagonal order.
//
// Its units sum sequentially, so its answer follows the fixed diagonals
// but never the lane count or the RHS count: it has no fused k-wide
// kernel, so a block runs by column. (A fused pass over whole rows would
// be the CSR kernel, MKL-IE's.)
type MergeCSR struct {
	driver
	csr   CSR           // the storage; its own driver stays unbound
	diags []sched.Range // the units
}

func newMergeCSR(m *matrix.CSR) *MergeCSR {
	f := &MergeCSR{csr: csrOf(m)}
	f.diags = sched.MergePath(m.RowPtr, (m.Rows+m.NNZ()+carryUnit-1)/carryUnit)
	f.heads = make([]int32, len(f.diags))
	for u, r := range f.diags {
		f.heads[u] = -1
		if r.NNZLo > int64(m.RowPtr[r.RowLo]) {
			f.heads[u] = int32(r.RowLo) // entries of the row were consumed before the diagonal
		}
	}
	f.bind(f)
	return f
}

// Name implements Format.
func (f *MergeCSR) Name() string { return "Merge-CSR" }

// Rows implements Format.
func (f *MergeCSR) Rows() int { return f.csr.rows }

// Cols implements Format.
func (f *MergeCSR) Cols() int { return f.csr.cols }

// NNZ implements Format.
func (f *MergeCSR) NNZ() int64 { return f.csr.NNZ() }

// Bytes implements Format: the CSR storage.
func (f *MergeCSR) Bytes() int64 { return f.csr.Bytes() }

// Traits implements Format: its k = 1 kernel is the sequential row sum.
func (f *MergeCSR) Traits() Traits {
	t := f.csr.Traits()
	t.Balancing, t.Class = ItemGranular, ClassRowSum
	return t
}

func (f *MergeCSR) units() int { return len(f.diags) }

// cum counts merge items: row ends plus nonzeros.
func (f *MergeCSR) cum(i int) int64 {
	if i == 0 {
		return 0
	}
	r := f.diags[i-1]
	return int64(r.RowHi) + r.NNZHi
}

// apply runs diagonals [lo, hi), single-vector only.
func (f *MergeCSR) apply(y, x, c []float64, _, lo, hi int) {
	if f.csr.col16 != nil {
		mergeUnits(f, f.csr.col16, y, x, c, lo, hi)
	} else {
		mergeUnits(f, f.csr.colIdx, y, x, c, lo, hi)
	}
}

func mergeUnits[I simd.Index](f *MergeCSR, colIdx []I, y, x, c []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		c[u] = mergeUnit(f.diags[u], f.heads[u] >= 0, f.csr.rowPtr, colIdx, f.csr.val, x, y)
	}
}

// mergeUnit stores every row that starts inside the diagonal r into y as
// the sequential sum of its entries in r, and returns the sum of the head
// row's fragment (the row r begins inside, when head) instead.
func mergeUnit[I simd.Index](r sched.Range, head bool, rowPtr []int32, colIdx []I, val, x, y []float64) (frag float64) {
	k, i := r.NNZLo, r.RowLo
	if head {
		for end := min(int64(rowPtr[i+1]), r.NNZHi); k < end; k++ {
			frag += val[k] * x[colIdx[k]]
		}
		if i == r.RowHi {
			return frag // the diagonal ends inside its head row
		}
		i++
	}
	for ; i < r.RowHi; i++ {
		sum := 0.0
		for end := int64(rowPtr[i+1]); k < end; k++ {
			sum += val[k] * x[colIdx[k]]
		}
		y[i] = sum
	}
	if k < r.NNZHi { // the row the diagonal ends inside starts here
		sum := 0.0
		for ; k < r.NNZHi; k++ {
			sum += val[k] * x[colIdx[k]]
		}
		y[r.RowHi] = sum
	}
	return frag
}
