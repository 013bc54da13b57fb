package matrix

// Dense is a row-major dense matrix, the package tests' brute-force oracle.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zeroed rows x cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// ToDense expands a CSR matrix into dense form; it allocates Rows*Cols
// floats.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, int(m.ColIdx[k]), m.Val[k])
		}
	}
	return d
}

// SpMV computes y = D*x by the naive triple loop.
func (d *Dense) SpMV(x, y []float64) {
	for i := 0; i < d.Rows; i++ {
		sum := 0.0
		row := d.Data[i*d.Cols : (i+1)*d.Cols]
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
}
