package matrix

import (
	"math"
	"math/rand"
	"slices"
)

// Pattern helpers produce small structured matrices for tests and examples.

// Identity returns the n x n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n,
		RowPtr: make([]int32, n+1),
		ColIdx: make([]int32, n),
		Val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = int32(i + 1)
		m.ColIdx[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

// Tridiagonal returns the n x n matrix with d on the diagonal and e on both
// off-diagonals, the classic 1-D Laplacian shape.
func Tridiagonal(n int, d, e float64) *CSR {
	o := NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			o.Append(int32(i), int32(i-1), e)
		}
		o.Append(int32(i), int32(i), d)
		if i < n-1 {
			o.Append(int32(i), int32(i+1), e)
		}
	}
	return o.ToCSR()
}

// Laplacian2D returns the 5-point stencil Laplacian on an nx x ny grid
// (rows = cols = nx*ny), a common PDE workload shape.
func Laplacian2D(nx, ny int) *CSR {
	n := nx * ny
	o := NewCOO(n, n, 5*n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := y*nx + x
			o.Append(int32(i), int32(i), 4)
			if x > 0 {
				o.Append(int32(i), int32(i-1), -1)
			}
			if x < nx-1 {
				o.Append(int32(i), int32(i+1), -1)
			}
			if y > 0 {
				o.Append(int32(i), int32(i-nx), -1)
			}
			if y < ny-1 {
				o.Append(int32(i), int32(i+nx), -1)
			}
		}
	}
	return o.ToCSR()
}

// Random returns a rows x cols matrix where each entry is present with
// probability density, with values uniform in [-1, 1). Deterministic in seed.
// It draws the geometric gap to each next present cell over the flattened
// cell index, so it costs O(nnz), not one draw per cell.
func Random(rows, cols int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	if !(density > 0) {
		return NewCOO(rows, cols, 0).ToCSR()
	}
	n := int64(rows) * int64(cols)
	o := NewCOO(rows, cols, int(float64(n)*min(density, 1))+1)
	lq := math.Log1p(-density) // the log of a cell's chance to be absent
	for c := int64(0); ; c++ {
		if density < 1 {
			g := math.Log(1-rng.Float64()) / lq // absent cells before the next present one
			if g >= float64(n-c) {
				break
			}
			c += int64(g)
		}
		if c >= n {
			break
		}
		o.Append(int32(c/int64(cols)), int32(c%int64(cols)), rng.Float64()*2-1)
	}
	return o.ToCSR()
}

// RandomRowSizes returns a rows x cols matrix where row i holds exactly
// rowNNZ[i] entries at distinct random columns. Deterministic in seed.
func RandomRowSizes(rows, cols int, rowNNZ []int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, n := range rowNNZ {
		total += n
	}
	m := &CSR{Rows: rows, Cols: cols,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, 0, total),
		Val:    make([]float64, 0, total),
	}
	seen := make(map[int32]bool, 64)
	for i := 0; i < rows; i++ {
		n := rowNNZ[i]
		if n > cols {
			n = cols
		}
		for c := range seen {
			delete(seen, c)
		}
		for len(seen) < n {
			seen[int32(rng.Intn(cols))] = true
		}
		cs := make([]int32, 0, n)
		for c := range seen {
			cs = append(cs, c)
		}
		slices.Sort(cs)
		for _, c := range cs {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, rng.Float64()*2-1)
		}
		m.RowPtr[i+1] = int32(len(m.Val))
	}
	return m
}

// RandomVector returns an n-vector with entries uniform in [-1, 1),
// deterministic in seed.
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}
