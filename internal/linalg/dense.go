package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix; use
// NewDense to allocate.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimensions")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFromRows builds a matrix from row slices, copying the data.
func NewDenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the entry at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the entry at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Inc adds v to the entry at (i, j).
func (m *Dense) Inc(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view of row i (not a copy).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// MulVec returns m * x as a fresh vector (allocating wrapper over MulVecTo).
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec got %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecT returns mᵀ * x as a fresh vector (allocating wrapper over
// MulVecTTo).
func (m *Dense) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("linalg: MulVecT got %d, want %d", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	m.MulVecTTo(out, x)
	return out
}

// Mul returns m * b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic("linalg: Mul dimension mismatch")
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			orow := out.Row(i)
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Solve solves m*x = b by Gaussian elimination with partial pivoting.
// m must be square; it is not modified. Returns ErrSingular if the matrix is
// numerically singular.
func (m *Dense) Solve(b []float64) ([]float64, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("linalg: Solve on %dx%d matrix: %w", m.rows, m.cols, ErrDimension)
	}
	if len(b) != m.rows {
		return nil, ErrDimension
	}
	n := m.rows
	a := m.Clone()
	x := Clone(b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vi, vp := a.At(col, j), a.At(pivot, j)
				a.Set(col, j, vp)
				a.Set(pivot, j, vi)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Inc(r, j, -f*a.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// ErrSingular is returned when a solve hits a numerically singular matrix.
var ErrSingular = fmt.Errorf("linalg: singular matrix")

// Cholesky computes the lower-triangular Cholesky factor of a symmetric
// positive-definite matrix. Returns ErrSingular when the matrix is not
// (numerically) positive definite.
func (m *Dense) Cholesky() (*Dense, error) {
	if m.rows != m.cols {
		return nil, ErrDimension
	}
	l := m.Clone()
	if err := l.CholeskyInPlace(); err != nil {
		return nil, err
	}
	for i := 0; i < l.rows; i++ {
		row := l.Row(i)
		for j := i + 1; j < len(row); j++ {
			row[j] = 0
		}
	}
	return l, nil
}

// CholeskyInPlace overwrites the lower triangle (diagonal included) of a
// symmetric positive-definite matrix with its Cholesky factor L, the
// allocation-free form of Cholesky: the strict upper triangle is left as it
// was and is never read by CholSolveInPlace. The arithmetic is the same as
// Cholesky's, so the factor is bitwise equal. On ErrSingular the lower
// triangle is partially overwritten.
func (m *Dense) CholeskyInPlace() error {
	if m.rows != m.cols {
		return ErrDimension
	}
	n := m.rows
	for i := 0; i < n; i++ {
		ri := m.Row(i)
		for j := 0; j <= i; j++ {
			rj := m.Row(j)
			s := ri[j]
			for k := 0; k < j; k++ {
				s -= ri[k] * rj[k]
			}
			if i == j {
				if s <= 0 {
					return ErrSingular
				}
				ri[i] = math.Sqrt(s)
			} else {
				ri[j] = s / rj[j]
			}
		}
	}
	return nil
}

// CholSolve solves L Lᵀ x = b given a lower Cholesky factor L.
func CholSolve(l *Dense, b []float64) []float64 {
	y := Clone(b)
	CholSolveInPlace(l, y)
	return y
}

// CholSolveInPlace solves L Lᵀ x = y in place (y holds b on entry and x on
// return), the allocation-free form of CholSolve.
func CholSolveInPlace(l *Dense, y []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		s := y[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// QuadForm returns xᵀ m x.
func (m *Dense) QuadForm(x []float64) float64 {
	return Dot(x, m.MulVec(x))
}

// SymEigBounds estimates the extreme eigenvalues of a symmetric matrix using
// power iteration on m and on (sI - m) with s an upper bound obtained from
// Gershgorin discs. The estimates are accurate to the given tolerance for
// matrices whose extreme eigenvalues are separated; they are used for bound
// reporting, not for correctness-critical decisions.
func (m *Dense) SymEigBounds(iters int) (lo, hi float64) {
	n := m.rows
	if n == 0 {
		return 0, 0
	}
	// Gershgorin upper bound on |lambda|.
	var shift float64
	for i := 0; i < n; i++ {
		var r float64
		for j := 0; j < n; j++ {
			r += math.Abs(m.At(i, j))
		}
		if r > shift {
			shift = r
		}
	}
	power := func(mul func([]float64) []float64) float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / math.Sqrt(float64(n)) * (1 + 0.01*float64(i%7))
		}
		var lambda float64
		for it := 0; it < iters; it++ {
			y := mul(x)
			nrm := Norm2(y)
			if nrm == 0 {
				return 0
			}
			Scale(1/nrm, y)
			lambda = Dot(y, mul(y))
			x = y
		}
		return lambda
	}
	hi = power(m.MulVec)
	// Largest eigenvalue of shift*I - m gives shift - lo.
	loShift := power(func(x []float64) []float64 {
		y := m.MulVec(x)
		for i := range y {
			y[i] = shift*x[i] - y[i]
		}
		return y
	})
	lo = shift - loShift
	return lo, hi
}
