package graph

import "fmt"

// Validate checks structural invariants: monotone row pointers, in-range
// sorted unique column indices, and matching array lengths. It is the
// oracle the graph tests hold every constructor's output to.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != m.NNZ() {
		return fmt.Errorf("graph: RowPtr endpoints %d..%d, want 0..%d", m.RowPtr[0], m.RowPtr[m.Rows], m.NNZ())
	}
	if len(m.Vals) != len(m.ColIdx) {
		return fmt.Errorf("graph: %d values for %d column indices", len(m.Vals), len(m.ColIdx))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("graph: RowPtr not monotone at row %d", i)
		}
		cols, _ := m.Row(i)
		for j, c := range cols {
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("graph: row %d column %d out of range", i, c)
			}
			if j > 0 && cols[j-1] >= c {
				return fmt.Errorf("graph: row %d columns not sorted/unique at %d", i, j)
			}
		}
	}
	return nil
}
