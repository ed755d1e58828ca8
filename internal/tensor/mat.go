package tensor

// Mat is a dense row-major float32 matrix. It is the workhorse of the NN
// framework: fully connected layers, im2col convolution and LSTM gate
// computations all reduce to Mat products.
type Mat struct {
	Rows, Cols int
	Data       Vec // len == Rows*Cols, row-major
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// MatFrom wraps an existing slice as a Rows×Cols matrix (no copy).
func MatFrom(rows, cols int, data Vec) *Mat {
	if len(data) != rows*cols {
		panic("tensor: MatFrom length mismatch")
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a subslice (no copy).
func (m *Mat) Row(r int) Vec { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data)}
}

// AddRowVec adds v to every row of m (broadcast bias add).
func AddRowVec(m *Mat, v Vec) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		Add(m.Row(r), v)
	}
}

// ColSums accumulates the column sums of m into dst (len dst == m.Cols).
// Used for bias gradients.
func ColSums(dst Vec, m *Mat) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		Add(dst, m.Row(r))
	}
}
