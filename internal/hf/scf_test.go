package hf

import (
	"math"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// smallMol builds a quick 4-atom, 12-function chain for SCF tests.
func smallMol() *Molecule {
	return MoleculeSpec{Name: "chain-4", Atoms: 4, Functions: 12, Shape: ShapeChain}.Build()
}

func TestSCFConverges(t *testing.T) {
	res, err := Run(smallMol(), Config{Mode: HFComp})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge in %d iterations", res.Iterations)
	}
	if res.Energy >= 0 {
		t.Errorf("total energy %v not negative", res.Energy)
	}
	if res.Iterations < 2 {
		t.Errorf("converged suspiciously fast: %d iterations", res.Iterations)
	}
}

// TestHFMemMatchesHFComp is the core correctness claim behind Table VI:
// the two algorithms are numerically identical, differing only in where
// the ERIs come from.
func TestHFMemMatchesHFComp(t *testing.T) {
	mol := smallMol()
	comp, err := Run(mol, Config{Mode: HFComp})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(mol, Config{Mode: HFMem})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(comp.Energy-mem.Energy) > 1e-8 {
		t.Errorf("energies differ: HF-Comp %v, HF-Mem %v", comp.Energy, mem.Energy)
	}
	if comp.Iterations != mem.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", comp.Iterations, mem.Iterations)
	}
	if comp.NonScreened != mem.NonScreened {
		t.Errorf("screened counts differ: %d vs %d", comp.NonScreened, mem.NonScreened)
	}
	if mem.Timings.Precomp <= 0 {
		t.Error("HF-Mem recorded no precompute time")
	}
	if comp.Timings.Precomp != 0 {
		t.Error("HF-Comp recorded precompute time")
	}
}

// TestFockBuildersMatchReference checks both production Fock builders
// against the direct quadruple-loop oracle.
func TestFockBuildersMatchReference(t *testing.T) {
	mol := MoleculeSpec{Name: "t", Atoms: 3, Functions: 8, Shape: ShapeChain}.Build()
	n := mol.NumFunctions()
	h := mol.CoreHamiltonian()
	// An arbitrary symmetric density.
	d := linalg.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 0.1 / float64(1+i+j)
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	want := FockReference(mol, h, d)

	// Use a tolerance low enough that nothing is screened out, so the
	// comparison is exact.
	const tol = 1e-30
	pairs := BuildPairs(mol, 2)
	gotComp := fockRecompute(mol, h, d, pairs, tol, 3)
	if diff := linalg.MaxAbsDiff(gotComp, want); diff > 1e-9 {
		t.Errorf("fockRecompute differs from reference by %v", diff)
	}

	var stored []storedQuartet
	pairs.VisitNonScreened(tol, func(a, b int) {
		i, j := pairs.I[a], pairs.J[a]
		k, l := pairs.I[b], pairs.J[b]
		stored = append(stored, storedQuartet{i, j, k, l,
			ERI(mol.Basis[i], mol.Basis[j], mol.Basis[k], mol.Basis[l])})
	})
	gotMem := fockFromStored(h, d, stored, 4)
	if diff := linalg.MaxAbsDiff(gotMem, want); diff > 1e-9 {
		t.Errorf("fockFromStored differs from reference by %v", diff)
	}
}

// TestDensityTrace: 2 Tr(D S) must equal the electron count after SCF.
func TestDensityTrace(t *testing.T) {
	mol := smallMol()
	s := mol.OverlapMatrix()
	x := linalg.SymInvSqrt(s)
	h := mol.CoreHamiltonian()
	d := densityStep(h, x, mol.OccupiedOrbitals(), DensityEigen)
	ds := linalg.NewMatrix(d.N)
	linalg.MatMul(ds, d, s)
	if got := 2 * ds.Trace(); math.Abs(got-float64(mol.NumElectrons())) > 1e-8 {
		t.Errorf("2 Tr(DS) = %v, want %d electrons", got, mol.NumElectrons())
	}
}

// TestDensityIdempotent: D S D = D for the converged closed-shell
// density.
func TestDensityIdempotent(t *testing.T) {
	mol := smallMol()
	s := mol.OverlapMatrix()
	x := linalg.SymInvSqrt(s)
	h := mol.CoreHamiltonian()
	d := densityStep(h, x, mol.OccupiedOrbitals(), DensityEigen)
	tmp := linalg.NewMatrix(d.N)
	dsd := linalg.NewMatrix(d.N)
	linalg.MatMul(tmp, d, s)
	linalg.MatMul(dsd, tmp, d)
	if diff := linalg.MaxAbsDiff(dsd, d); diff > 1e-8 {
		t.Errorf("D S D differs from D by %v", diff)
	}
}

// TestScreeningReducesWork: a realistic tolerance must drop quartets on a
// spread-out chain, and tightening the tolerance must keep more.
func TestScreeningReducesWork(t *testing.T) {
	mol := MoleculeSpec{Name: "t", Atoms: 10, Functions: 30, Shape: ShapeChain}.Build()
	pairs := BuildPairs(mol, 0)
	p := int64(pairs.Pairs())
	all := p * (p + 1) / 2
	loose := pairs.CountNonScreened(1e-6)
	tight := pairs.CountNonScreened(1e-12)
	if loose >= tight {
		t.Errorf("loose %d >= tight %d", loose, tight)
	}
	if tight > all {
		t.Errorf("count %d exceeds total quartets %d", tight, all)
	}
	if loose == 0 {
		t.Error("everything screened out at 1e-6")
	}
	if tight == all {
		t.Error("nothing screened on a 10-atom chain at 1e-12; geometry too compact")
	}
}

// TestCountMatchesVisit: the analytic count must equal the enumeration.
func TestCountMatchesVisit(t *testing.T) {
	mol := MoleculeSpec{Name: "t", Atoms: 5, Functions: 15, Shape: ShapeChain}.Build()
	pairs := BuildPairs(mol, 0)
	for _, tol := range []float64{1e-4, 1e-8, 1e-12} {
		var visited int64
		pairs.VisitNonScreened(tol, func(a, b int) { visited++ })
		if count := pairs.CountNonScreened(tol); count != visited {
			t.Errorf("tol %g: count %d != visited %d", tol, count, visited)
		}
	}
}

// TestParallelVisitMatchesSerial: same quartets regardless of workers.
func TestParallelVisitMatchesSerial(t *testing.T) {
	mol := MoleculeSpec{Name: "t", Atoms: 5, Functions: 15, Shape: ShapeChain}.Build()
	pairs := BuildPairs(mol, 0)
	const tol = 1e-8
	serial := map[[2]int]int{}
	pairs.VisitNonScreened(tol, func(a, b int) { serial[[2]int{a, b}]++ })
	var mu sync.Mutex
	parallel := map[[2]int]int{}
	pairs.VisitNonScreenedParallel(tol, 4, func(_, a, b int) {
		mu.Lock()
		parallel[[2]int{a, b}]++
		mu.Unlock()
	})
	if len(serial) != len(parallel) {
		t.Fatalf("quartet sets differ: %d vs %d", len(serial), len(parallel))
	}
	for k, v := range serial {
		if v != 1 || parallel[k] != 1 {
			t.Fatalf("quartet %v visited %d/%d times", k, v, parallel[k])
		}
	}
}

// TestEnergyComponents: the decomposition must sum to the total, with
// physically sensible signs.
func TestEnergyComponents(t *testing.T) {
	res, err := Run(smallMol(), Config{Mode: HFMem})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Components
	if math.Abs(c.Total()-res.Energy) > 1e-8 {
		t.Errorf("components sum to %v, total energy %v", c.Total(), res.Energy)
	}
	if c.Kinetic <= 0 {
		t.Errorf("kinetic energy %v not positive", c.Kinetic)
	}
	if c.NuclearAttraction >= 0 {
		t.Errorf("nuclear attraction %v not negative", c.NuclearAttraction)
	}
	if c.TwoElectron <= 0 {
		t.Errorf("electron repulsion %v not positive", c.TwoElectron)
	}
	if c.NuclearRepulsion <= 0 {
		t.Errorf("nuclear repulsion %v not positive", c.NuclearRepulsion)
	}
}

// TestPurificationMatchesEigensolve: the SCF converges to the same
// energy whichever density builder runs — the paper's "spectral
// projector" stage is interchangeable with diagonalization.
func TestPurificationMatchesEigensolve(t *testing.T) {
	mol := smallMol()
	eig, err := Run(mol, Config{Mode: HFMem, Density: DensityEigen})
	if err != nil {
		t.Fatal(err)
	}
	pur, err := Run(mol, Config{Mode: HFMem, Density: DensityPurify})
	if err != nil {
		t.Fatal(err)
	}
	if !eig.Converged || !pur.Converged {
		t.Fatalf("convergence: eigen=%v purify=%v", eig.Converged, pur.Converged)
	}
	if math.Abs(eig.Energy-pur.Energy) > 1e-6 {
		t.Errorf("energies differ: eigensolve %v, purification %v", eig.Energy, pur.Energy)
	}
}

func TestDensityMethodString(t *testing.T) {
	if DensityEigen.String() != "eigensolve" || DensityPurify.String() != "purification" {
		t.Error("DensityMethod strings wrong")
	}
}

func TestModeString(t *testing.T) {
	if HFComp.String() != "HF-Comp" || HFMem.String() != "HF-Mem" {
		t.Error("Mode strings wrong")
	}
}

func TestResultPerIter(t *testing.T) {
	r := &Result{Iterations: 4}
	r.Timings.Fock = 400
	r.Timings.Density = 100
	if r.FockPerIter() != 100 || r.DensityPerIter() != 25 {
		t.Error("per-iteration division wrong")
	}
	var zero Result
	if zero.FockPerIter() != 0 {
		t.Error("zero iterations should give zero")
	}
}

// Total returns the components' sum.
func (e EnergyComponents) Total() float64 {
	return e.Kinetic + e.NuclearAttraction + e.TwoElectron + e.NuclearRepulsion
}

// Pairs returns the number of unique pairs.
func (p *PairList) Pairs() int { return len(p.Q) }
