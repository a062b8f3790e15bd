package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFromCOOBasic(t *testing.T) {
	coo := &COO{Rows: 3, Cols: 3}
	coo.Append(2, 0, 5)
	coo.Append(0, 1, 2)
	coo.Append(0, 0, 1)
	m := FromCOO(coo)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("row 0 = %v %v", cols, vals)
	}
	if m.Degree(1) != 0 {
		t.Errorf("row 1 degree = %d", m.Degree(1))
	}
}

func TestFromCOODuplicatesSum(t *testing.T) {
	coo := &COO{Rows: 2, Cols: 2}
	coo.Append(0, 1, 2)
	coo.Append(0, 1, 3)
	coo.Append(0, 0, 1)
	m := FromCOO(coo)
	cols, vals := m.Row(0)
	if len(cols) != 2 {
		t.Fatalf("duplicates not merged: %v", cols)
	}
	if vals[1] != 5 {
		t.Errorf("duplicate sum = %v, want 5", vals[1])
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCOOAllOnesDefault(t *testing.T) {
	coo := &COO{Rows: 2, Cols: 2}
	coo.Append(0, 0, 1)
	coo.Append(1, 1, 1)
	m := FromCOO(coo)
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Error("default values not 1")
	}
}

func TestFromCOOPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range triplet did not panic")
		}
	}()
	FromCOO(&COO{Rows: 2, Cols: 2, I: []int32{2}, J: []int32{0}})
}

func TestFromCOOProperty(t *testing.T) {
	// Property: assembly preserves the summed value per (i,j) pair.
	f := func(seed uint64, nTrip uint8) bool {
		coo := &COO{Rows: 8, Cols: 8}
		want := map[[2]int32]float64{}
		s := seed
		for k := 0; k < int(nTrip); k++ {
			s = s*6364136223846793005 + 1442695040888963407
			i := int32((s >> 10) % 8)
			j := int32((s >> 20) % 8)
			v := float64((s>>30)%5) + 1
			coo.Append(i, j, v)
			want[[2]int32{i, j}] += v
		}
		m := FromCOO(coo)
		if m.Validate() != nil {
			return false
		}
		got := map[[2]int32]float64{}
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k := range cols {
				got[[2]int32{int32(i), cols[k]}] = vals[k]
			}
		}
		if len(got) != len(want) {
			return false
		}
		for key, v := range want {
			if got[key] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranspose(t *testing.T) {
	coo := &COO{Rows: 2, Cols: 3}
	coo.Append(0, 2, 7)
	coo.Append(1, 0, 3)
	m := FromCOO(coo)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cols, vals := tr.Row(2)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 7 {
		t.Errorf("transpose row 2 = %v %v", cols, vals)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := RMAT(DefaultRMAT(8, 99))
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() || tt.Rows != m.Rows {
		t.Fatal("double transpose changed shape")
	}
	for i := 0; i < m.Rows; i++ {
		c1, _ := m.Row(i)
		c2, _ := tt.Row(i)
		if len(c1) != len(c2) {
			t.Fatalf("row %d degree changed", i)
		}
		for k := range c1 {
			if c1[k] != c2[k] {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestDense(t *testing.T) {
	m := Dense(16)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 256 || m.AvgDegree() != 16 || m.MaxDegree() != 16 {
		t.Errorf("dense stats wrong: nnz=%d", m.NNZ())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(DefaultRMAT(10, 7))
	b := RMAT(DefaultRMAT(10, 7))
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestRMATShape(t *testing.T) {
	cfg := DefaultRMAT(12, 1)
	m := RMAT(cfg)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 4096 {
		t.Fatalf("rows = %d", m.Rows)
	}
	// Dedup loses some edges but the bulk must remain.
	if m.NNZ() < cfg.Edges()/2 || m.NNZ() > cfg.Edges() {
		t.Errorf("nnz = %d of %d generated", m.NNZ(), cfg.Edges())
	}
	// Scale-free: max degree far above average.
	if float64(m.MaxDegree()) < 8*m.AvgDegree() {
		t.Errorf("max degree %d vs avg %.1f: not skewed", m.MaxDegree(), m.AvgDegree())
	}
	// No self loops.
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if int(c) == i {
				t.Fatalf("self loop at %d", i)
			}
		}
	}
}

func TestRMATUndirectedSymmetric(t *testing.T) {
	cfg := DefaultRMAT(9, 3)
	cfg.Undirected = true
	m := RMAT(cfg)
	tr := m.Transpose()
	if tr.NNZ() != m.NNZ() {
		t.Fatal("asymmetric nnz")
	}
	for i := 0; i < m.Rows; i++ {
		c1, _ := m.Row(i)
		c2, _ := tr.Row(i)
		for k := range c1 {
			if c1[k] != c2[k] {
				t.Fatalf("row %d not symmetric", i)
			}
		}
	}
}

// floatQuadrant is the reference quadrant choice: the first-match float
// comparison of the uniform variate u against A, A+B and A+B+C.
func floatQuadrant(cfg RMATConfig, u float64) int32 {
	ab := cfg.A + cfg.B
	abc := ab + cfg.C
	switch {
	case u < cfg.A:
		return 0
	case u < ab:
		return 1
	case u < abc:
		return 2
	default:
		return 3
	}
}

// rmatOne is the float-draw oracle: one edge by recursive quadrant
// descent on r.Float64() variates.
func rmatOne(cfg RMATConfig, r *rng.Rand) (int32, int32) {
	var i, j int32
	for bit := 0; bit < cfg.Scale; bit++ {
		switch floatQuadrant(cfg, r.Float64()) {
		case 0:
			// top-left: no bits set
		case 1:
			j |= 1 << bit
		case 2:
			i |= 1 << bit
		default:
			i |= 1 << bit
			j |= 1 << bit
		}
	}
	return i, j
}

// rmatEdgesOracle is RMATEdges on the float-draw oracle.
func rmatEdgesOracle(cfg RMATConfig) (src, dst []int32) {
	r := rng.New(cfg.Seed)
	for e := int64(0); e < cfg.Edges(); e++ {
		i, j := rmatOne(cfg, r)
		for cfg.NoSelf && i == j {
			i, j = rmatOne(cfg, r)
		}
		src = append(src, i)
		dst = append(dst, j)
	}
	return src, dst
}

// TestRMATThresholdsMatchFloatDraws checks the integer quadrant choice
// against the float comparison at every threshold's boundary draws and
// at random draws: for the Graph500 parameters, for probabilities below
// 1/2 (whose thresholds p*2^53 are not integers, so the ceiling matters)
// and for a configuration whose cumulative probabilities are not
// monotone.
func TestRMATThresholdsMatchFloatDraws(t *testing.T) {
	small := DefaultRMAT(4, 1)
	small.A, small.B, small.C, small.D = 0.1, 0.2, 0.3, 0.4
	odd := DefaultRMAT(4, 1)
	odd.A, odd.B, odd.C, odd.D = 0.6, -0.1, 0.5, 0
	for _, cfg := range []RMATConfig{DefaultRMAT(14, 1), small, odd} {
		g := newRMATGen(cfg)
		ks := []uint64{0, 1<<53 - 1}
		for _, th := range g.t {
			ks = append(ks, th-1, th, th+1)
		}
		r := rng.New(99)
		for n := 0; n < 100000; n++ {
			ks = append(ks, r.Uint64()>>11)
		}
		for _, k := range ks {
			if k >= 1<<53 {
				continue
			}
			if got, want := g.quadrant(k), floatQuadrant(cfg, float64(k)/(1<<53)); got != want {
				t.Fatalf("A=%g B=%g C=%g, k=%d: quadrant %d, float draw gives %d", cfg.A, cfg.B, cfg.C, k, got, want)
			}
		}
	}
}

// TestRMATMatchesFloatOracle pins RMATEdges and RMATDegrees to the
// float-draw generator they replaced.
func TestRMATMatchesFloatOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, ef := range []int{8, 16} {
			for _, noSelf := range []bool{true, false} {
				cfg := DefaultRMAT(14, seed)
				cfg.EdgeFactor, cfg.NoSelf = ef, noSelf
				wantSrc, wantDst := rmatEdgesOracle(cfg)
				src, dst, err := RMATEdges(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(src, wantSrc) || !reflect.DeepEqual(dst, wantDst) {
					t.Fatalf("seed %d ef %d noSelf %v: RMATEdges differs from the float oracle", seed, ef, noSelf)
				}
				wantDeg := make([]int32, cfg.Vertices())
				for e := range wantSrc {
					wantDeg[wantSrc[e]]++
					wantDeg[wantDst[e]]++
				}
				deg, err := RMATDegrees(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(deg, wantDeg) {
					t.Fatalf("seed %d ef %d noSelf %v: RMATDegrees differs from the float oracle", seed, ef, noSelf)
				}
			}
		}
	}
}

func TestRMATValidate(t *testing.T) {
	bad := DefaultRMAT(10, 1)
	bad.A = 0.9
	if bad.Validate() == nil {
		t.Error("bad probabilities accepted")
	}
	bad = DefaultRMAT(0, 1)
	if bad.Validate() == nil {
		t.Error("scale 0 accepted")
	}
	bad = DefaultRMAT(10, 1)
	bad.EdgeFactor = 0
	if bad.Validate() == nil {
		t.Error("edge factor 0 accepted")
	}
}

func TestSuiteProfiles(t *testing.T) {
	suite := Suite()
	if len(suite) < 10 {
		t.Fatalf("suite has %d matrices", len(suite))
	}
	if suite[0].Name != "Dense" {
		t.Error("suite should lead with the Dense reference")
	}
	seen := map[string]bool{}
	for _, p := range suite {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.N <= 0 || p.NNZ <= 0 {
			t.Errorf("%s: empty profile", p.Name)
		}
	}
}

// TestGenerateMatchesProfiles checks each synthetic matrix lands near its
// published size and nnz (within 35% — structure matters more than the
// exact count, but the scale must be right).
func TestGenerateMatchesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix synthesis is slow")
	}
	for _, p := range Suite() {
		m := Generate(p, 1)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if m.Rows != p.N {
			t.Errorf("%s: rows %d, want %d", p.Name, m.Rows, p.N)
		}
		ratio := float64(m.NNZ()) / float64(p.NNZ)
		if ratio < 0.65 || ratio > 1.35 {
			t.Errorf("%s: nnz %d vs published %d (ratio %.2f)", p.Name, m.NNZ(), p.NNZ, ratio)
		}
	}
}

func TestGeneratePowerLawIsSkewed(t *testing.T) {
	p := MatrixProfile{Name: "pl", N: 20000, NNZ: 120000, Kind: KindPowerLaw}
	m := Generate(p, 3)
	if float64(m.MaxDegree()) < 10*m.AvgDegree() {
		t.Errorf("power-law max degree %d vs avg %.1f", m.MaxDegree(), m.AvgDegree())
	}
}

func TestCSRBytes(t *testing.T) {
	m := Dense(8)
	want := int64(9*8 + 64*4 + 64*8)
	if got := int64(m.Bytes()); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[MatrixKind]string{
		KindBanded: "banded", KindBlocked: "blocked", KindRandom: "random",
		KindPowerLaw: "power-law", KindDense: "dense",
	}
	for k, s := range kinds {
		if k.String() != s {
			t.Errorf("%d -> %q", int(k), k.String())
		}
	}
}
