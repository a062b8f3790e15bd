// Package graph provides the sparse-matrix and graph substrate the
// paper's applications run on: CSR storage, COO assembly, the R-MAT
// generator used for the Jaccard and SpMV experiments (Figures 10 and
// 12), and a synthetic matrix suite reproducing the structural profiles
// of the University of Florida matrices used in Figure 11.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// CSR is a sparse matrix in compressed sparse row format. Column indices
// within each row are sorted and unique after construction through
// FromCOO.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int64 { return int64(len(m.ColIdx)) }

// AvgDegree returns the mean nonzeros per row.
func (m *CSR) AvgDegree() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// Row returns the column indices and values of row i as shared slices.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// Degree returns the number of nonzeros in row i.
func (m *CSR) Degree(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// MaxDegree returns the largest row degree (0 for an empty matrix).
func (m *CSR) MaxDegree() int {
	max := 0
	for i := 0; i < m.Rows; i++ {
		if d := m.Degree(i); d > max {
			max = d
		}
	}
	return max
}

// Bytes returns the memory footprint of the CSR arrays.
func (m *CSR) Bytes() units.Bytes {
	return units.Bytes(len(m.RowPtr)*8 + len(m.ColIdx)*4 + len(m.Vals)*8)
}

// COO is an edge/triplet list used for assembly.
type COO struct {
	Rows, Cols int
	I, J       []int32
	V          []float64 // nil means all-ones
}

// Append adds a triplet.
func (c *COO) Append(i, j int32, v float64) {
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	if c.V != nil || v != 1 {
		if c.V == nil {
			c.V = make([]float64, len(c.I)-1)
			for k := range c.V {
				c.V[k] = 1
			}
		}
		c.V = append(c.V, v)
	}
}

// value returns triplet k's value.
func (c *COO) value(k int) float64 {
	if c.V == nil {
		return 1
	}
	return c.V[k]
}

// FromCOO assembles a CSR from triplets: bucket by row, sort each row by
// column, and sum duplicate entries. Out-of-range indices panic.
func FromCOO(c *COO) *CSR {
	nnz := len(c.I)
	if len(c.J) != nnz || (c.V != nil && len(c.V) != nnz) {
		panic("graph: COO arrays disagree in length")
	}
	counts := make([]int64, c.Rows+1)
	for k := 0; k < nnz; k++ {
		i, j := c.I[k], c.J[k]
		if i < 0 || int(i) >= c.Rows || j < 0 || int(j) >= c.Cols {
			panic(fmt.Sprintf("graph: triplet (%d,%d) out of %dx%d", i, j, c.Rows, c.Cols))
		}
		counts[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		counts[i+1] += counts[i]
	}
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	next := make([]int64, c.Rows)
	copy(next, counts[:c.Rows])
	for k := 0; k < nnz; k++ {
		p := next[c.I[k]]
		next[c.I[k]]++
		cols[p] = c.J[k]
		vals[p] = c.value(k)
	}
	// Sort within each row and merge duplicates, compacting in place.
	out := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1)}
	w := int64(0)
	for i := 0; i < c.Rows; i++ {
		lo, hi := counts[i], counts[i+1]
		seg := rowSeg{cols: cols[lo:hi], vals: vals[lo:hi]}
		sort.Sort(seg)
		for r := 0; r < len(seg.cols); r++ {
			if w > out.RowPtr[i] && cols[w-1] == seg.cols[r] && w-1 >= out.RowPtr[i] {
				vals[w-1] += seg.vals[r]
				continue
			}
			cols[w] = seg.cols[r]
			vals[w] = seg.vals[r]
			w++
		}
		out.RowPtr[i+1] = w
	}
	out.ColIdx = cols[:w]
	out.Vals = vals[:w]
	return out
}

type rowSeg struct {
	cols []int32
	vals []float64
}

func (s rowSeg) Len() int           { return len(s.cols) }
func (s rowSeg) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s rowSeg) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Transpose returns the transposed matrix (CSC view materialized as CSR).
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int64, m.Cols+1)}
	t.ColIdx = make([]int32, m.NNZ())
	t.Vals = make([]float64, m.NNZ())
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < t.Rows; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int64, t.Rows)
	copy(next, t.RowPtr[:t.Rows])
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			p := next[j]
			next[j]++
			t.ColIdx[p] = int32(i)
			t.Vals[p] = vals[k]
		}
	}
	return t
}

// Dense builds an n x n fully dense matrix in CSR form — the paper's
// "Dense" reference point for peak achievable SpMV performance.
func Dense(n int) *CSR {
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	m.ColIdx = make([]int32, n*n)
	m.Vals = make([]float64, n*n)
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = int64((i + 1) * n)
		for j := 0; j < n; j++ {
			m.ColIdx[i*n+j] = int32(j)
			m.Vals[i*n+j] = 1 + float64((i+j)%5)
		}
	}
	return m
}
