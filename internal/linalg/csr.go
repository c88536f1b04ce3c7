package linalg

import (
	"fmt"
	"sort"
)

// Triple is a (row, col, value) entry used to assemble sparse matrices.
type Triple struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. Duplicate triples are summed during
// assembly. The zero value is unusable; construct with NewCSR.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR assembles a rows×cols CSR matrix from triples, summing duplicates.
func NewCSR(rows, cols int, triples []Triple) *CSR {
	for _, t := range triples {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("linalg: triple (%d,%d) out of bounds for %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	ts := make([]Triple, len(triples))
	copy(ts, triples)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(ts); {
		j := i
		v := 0.0
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			v += ts[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, ts[i].Col)
			m.vals = append(m.vals, v)
			m.rowPtr[ts[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// MulVec returns m * x as a fresh vector (allocating wrapper over MulVecTo).
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: CSR MulVec got %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecT returns mᵀ * x as a fresh vector (allocating wrapper over
// MulVecTTo).
func (m *CSR) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("linalg: CSR MulVecT got %d, want %d", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	m.MulVecTTo(out, x)
	return out
}

// At returns the entry at (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// Diag returns the diagonal as a vector (for square matrices).
func (m *CSR) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Dense converts to a dense matrix (for small instances and tests).
func (m *CSR) Dense() *Dense {
	out := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			out.Set(r, m.colIdx[k], m.vals[k])
		}
	}
	return out
}

// QuadForm returns xᵀ m x for square m.
func (m *CSR) QuadForm(x []float64) float64 {
	return Dot(x, m.MulVec(x))
}

// Scale returns a new CSR with every value multiplied by a.
func (m *CSR) Scale(a float64) *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		vals:   make([]float64, len(m.vals)),
	}
	for i, v := range m.vals {
		out.vals[i] = a * v
	}
	return out
}

// RowNNZ returns the number of nonzeros in row r.
func (m *CSR) RowNNZ(r int) int { return m.rowPtr[r+1] - m.rowPtr[r] }

// RowEntries returns views (not copies) of the column indices and values
// stored in row r, for hot loops where VisitRow's per-entry call shows.
func (m *CSR) RowEntries(r int) ([]int, []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// VisitRow calls f(col, val) for every stored nonzero in row r.
func (m *CSR) VisitRow(r int, f func(col int, val float64)) {
	for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
		f(m.colIdx[k], m.vals[k])
	}
}
