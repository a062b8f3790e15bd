package hf

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// dampedFixedPoint is the reference SCF Run is checked against: plain
// eigensolve steps mixed 70/30 with the previous density, no DIIS,
// iterated until the density moves less than 1e-10. It returns the
// converged density, its Fock matrix and the total energy.
func dampedFixedPoint(t *testing.T, mol *Molecule) (d, f *linalg.Matrix, energy float64) {
	t.Helper()
	x := linalg.SymInvSqrt(mol.OverlapMatrix())
	h := mol.CoreHamiltonian()
	pairs := BuildPairs(mol, 0)
	nOcc := mol.OccupiedOrbitals()
	d = densityStep(h, x, nOcc)
	converged := false
	for i := 0; i < 300; i++ {
		f = fockRecompute(mol, h, d, pairs, 1e-10, 0)
		dNew := densityStep(f, x, nOcc)
		if linalg.MaxAbsDiff(dNew, d) < 1e-10 {
			d, converged = dNew, true
			break
		}
		for k := range d.Data {
			d.Data[k] = 0.7*dNew.Data[k] + 0.3*d.Data[k]
		}
	}
	if !converged {
		t.Fatalf("%s: damped reference SCF did not converge", mol.Name)
	}
	for k := range d.Data {
		energy += d.Data[k] * (h.Data[k] + f.Data[k])
	}
	return d, f, energy + mol.NuclearRepulsion()
}

// TestDIISMatchesDamping: Run's DIIS-accelerated SCF must reach the
// fixed point of the damped iteration, in both modes.
func TestDIISMatchesDamping(t *testing.T) {
	for _, mol := range []*Molecule{smallMol(), chain8()} {
		_, _, want := dampedFixedPoint(t, mol)
		for _, mode := range []Mode{HFComp, HFMem} {
			res, err := Run(mol, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s %v: not converged in %d iterations", mol.Name, mode, res.Iterations)
			}
			if math.Abs(res.Energy-want) > 1e-5 {
				t.Errorf("%s %v: energy %v, damped fixed point %v", mol.Name, mode, res.Energy, want)
			}
		}
	}
}

// TestSCFIterationGate: DIIS converges every Table V molecule (scaled
// to 40 functions) and chain-8 within 8 iterations. Iteration counts
// are deterministic, so this gate does not flake with host load.
func TestSCFIterationGate(t *testing.T) {
	mols := []*Molecule{chain8()}
	for _, spec := range TableV() {
		mols = append(mols, spec.Scaled(40).Build())
	}
	for _, mol := range mols {
		res, err := Run(mol, Config{Mode: HFMem})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d iterations, E = %.9f Ha", mol.Name, res.Iterations, res.Energy)
		if !res.Converged || res.Iterations > 8 {
			t.Errorf("%s: converged=%v after %d iterations, want converged within 8",
				mol.Name, res.Converged, res.Iterations)
		}
	}
}

func TestDIISErrorVanishesAtConvergence(t *testing.T) {
	mol := smallMol()
	d, f, _ := dampedFixedPoint(t, mol)
	e := diisError(f, d, mol.OverlapMatrix())
	if maxErr(e) > 1e-6 {
		t.Errorf("commutator FDS-SDF = %v at convergence, want ~0", maxErr(e))
	}
}

func TestDIISSubspaceManagement(t *testing.T) {
	dx := newDIIS(3)
	n := 4
	for i := 0; i < 6; i++ {
		f := linalg.NewMatrix(n)
		e := linalg.NewMatrix(n)
		f.Set(0, 0, float64(i))
		e.Set(0, 0, 1.0/float64(i+1))
		e.Set(1, 1, 0.1*float64(i%2)+0.01) // keep B nonsingular
		dx.push(f, e)
	}
	if len(dx.focks) != 3 {
		t.Errorf("subspace holds %d vectors, want 3", len(dx.focks))
	}
	if out := dx.extrapolate(); out == nil {
		t.Error("extrapolation failed on a healthy subspace")
	}
}

func TestDIISTooFewVectors(t *testing.T) {
	dx := newDIIS(4)
	dx.push(linalg.NewMatrix(2), linalg.NewMatrix(2))
	if dx.extrapolate() != nil {
		t.Error("extrapolation with one vector should return nil")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	x, err := linalg.SolveLinear([]float64{2, 1, 1, 3}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	if _, err := linalg.SolveLinear([]float64{1, 2, 2, 4}, []float64{1, 2}); err == nil {
		t.Error("singular system solved")
	}
	if _, err := linalg.SolveLinear([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("malformed system accepted")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	x, err := linalg.SolveLinear([]float64{0, 1, 1, 0}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("solution = %v, want [3 2]", x)
	}
}

// maxErr returns the error vector's max-abs element, the DIIS
// convergence measure.
func maxErr(e *linalg.Matrix) float64 {
	var v float64
	for _, x := range e.Data {
		if x < 0 {
			x = -x
		}
		if x > v {
			v = x
		}
	}
	return v
}
