package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
2 3 -1
3 4 7
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.NNZ() != 3 {
		t.Fatalf("shape = %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cols, vals := m.Row(0)
	if cols[0] != 0 || vals[0] != 2.5 {
		t.Errorf("row 0 = %v %v", cols, vals)
	}
	cols, vals = m.Row(2)
	if cols[0] != 3 || vals[0] != 7 {
		t.Errorf("row 2 = %v %v", cols, vals)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1
2 1 5
3 2 6
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonals mirror: nnz = 1 + 2 + 2.
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[1] != 1 || vals[1] != 5 {
		t.Errorf("row 0 = %v %v", cols, vals)
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Error("pattern values not unit")
	}
}

// TestMatrixMarketRoundTrip reads back an R-MAT matrix written out as
// coordinate-form real general Matrix Market.
func TestMatrixMarketRoundTrip(t *testing.T) {
	orig := RMAT(DefaultRMAT(8, 5))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", orig.Rows, orig.Cols, orig.NNZ())
	for i := 0; i < orig.Rows; i++ {
		cols, vals := orig.Row(i)
		for k := range cols {
			fmt.Fprintf(&buf, "%d %d %g\n", i+1, cols[k]+1, vals[k])
		}
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != orig.Rows || back.NNZ() != orig.NNZ() {
		t.Fatalf("round trip changed shape: %d/%d nnz %d/%d",
			back.Rows, orig.Rows, back.NNZ(), orig.NNZ())
	}
	for i := 0; i < orig.Rows; i++ {
		c1, v1 := orig.Row(i)
		c2, v2 := back.Row(i)
		for k := range c1 {
			if c1[k] != c2[k] || v1[k] != v2[k] {
				t.Fatalf("row %d differs after round trip", i)
			}
		}
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"not mm":         "hello\n1 1 1\n",
		"array form":     "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"complex field":  "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":   "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"no size":        "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad size":       "%%MatrixMarket matrix coordinate real general\n2 2\n",
		"out of range":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 x\n",
		"count mismatch": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"short entry":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
