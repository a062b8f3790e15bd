package power8

// Tests of the public facade: everything a downstream user can reach
// without internal imports must work end to end.

import (
	"math"
	"testing"
)

func TestFacadeGraphPipeline(t *testing.T) {
	g := NewRMAT(10, 3, true)
	if g.Rows != 1024 {
		t.Fatalf("vertices = %d", g.Rows)
	}
	st := AllPairsJaccard(g, 0, nil)
	if st.Pairs == 0 {
		t.Fatal("no similar pairs")
	}
	tk := NewJaccardTopK(5)
	AllPairsJaccard(g, 0, tk.Emit)
	if got := tk.Pairs(); len(got) != 5 || got[0].Similarity <= 0 {
		t.Fatalf("top pairs = %v", got)
	}

	x := make([]float64, g.Cols)
	y := make([]float64, g.Rows)
	for i := range x {
		x[i] = 1
	}
	SpMV(y, g, x, 0)
	ts := NewTwoScan(g, 256)
	y2 := make([]float64, g.Rows)
	ts.Multiply(y2, x, 0)
	for i := range y {
		if math.Abs(y[i]-y2[i]) > 1e-9 {
			t.Fatalf("facade SpMV engines disagree at %d", i)
		}
	}
	ranks, _ := PageRank(NewRMAT(9, 1, false), 0.85, 1e-9, 100, 0)
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-7 {
		t.Errorf("PageRank mass %v", sum)
	}
}

func TestFacadeMatrixSuite(t *testing.T) {
	suite := MatrixSuite()
	if len(suite) < 10 || suite[0].Name != "Dense" {
		t.Fatalf("suite = %d entries", len(suite))
	}
	small := suite[0]
	small.N, small.NNZ = 128, 128*128
	m := GenerateMatrix(small, 1)
	if m.NNZ() != 128*128 {
		t.Errorf("generated nnz = %d", m.NNZ())
	}
}

func TestFacadeHF(t *testing.T) {
	specs := TableVMolecules()
	if len(specs) != 5 {
		t.Fatalf("molecules = %d", len(specs))
	}
	mol := specs[3].Scaled(40).Build()
	res, err := RunHF(mol, HFConfig{Mode: HFMem})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Energy >= 0 {
		t.Errorf("SCF result: converged=%v E=%v", res.Converged, res.Energy)
	}
	rows := ProjectTableVI(0)
	if len(rows) != 5 || rows[1].Speedup <= 1 {
		t.Errorf("projection rows = %v", rows)
	}
}

func TestFacadeRoofline(t *testing.T) {
	spec := E870Spec()
	main := RooflineFor(spec)
	wo := WriteOnlyRoofline(spec)
	if main.BalancePoint() >= 1.3 || main.BalancePoint() <= 1.1 {
		t.Errorf("balance = %v", main.BalancePoint())
	}
	if wo.Attainable(1).GFs() >= main.Attainable(1).GFs() {
		t.Error("write-only ceiling not below the main roof")
	}
	if len(RooflineKernels()) != 4 {
		t.Error("kernel set wrong")
	}
}

func TestFacadeWalkerAndAblations(t *testing.T) {
	m := NewE870()
	w := m.NewWalker(WalkerConfig{DisablePrefetch: true})
	if lat := w.Access(0); lat < 90 {
		t.Errorf("cold access latency %v ns", lat)
	}
	v := AblateVictimL3(m)
	if v.Factor() <= 1 {
		t.Errorf("victim L3 factor %v", v.Factor())
	}
	r := AblateInterGroupRouting(E870Spec())
	if r.With <= r.Without {
		t.Error("routing ablation inverted")
	}
}
