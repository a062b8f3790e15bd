package hf

import (
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/units"
)

// Mode selects the ERI strategy of Section V-C.
type Mode int

// The two algorithm variants Table VI compares.
const (
	// HFComp recomputes all non-screened ERIs at every SCF iteration,
	// the strategy of conventional packages like NWChem.
	HFComp Mode = iota
	// HFMem precomputes the non-screened ERIs once and stores them,
	// the strategy the E870's memory capacity enables.
	HFMem
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == HFComp {
		return "HF-Comp"
	}
	return "HF-Mem"
}

// DensityMethod selects how the density stage computes the spectral
// projector of the Fock matrix.
type DensityMethod int

// Density stage variants.
const (
	// DensityEigen diagonalizes the orthogonalized Fock matrix (Jacobi)
	// and occupies the lowest orbitals — the textbook Roothaan step.
	DensityEigen DensityMethod = iota
	// DensityPurify builds the projector by canonical McWeeny
	// purification, avoiding diagonalization — the "spectral projector"
	// computation Section V-C refers to.
	DensityPurify
)

// String implements fmt.Stringer.
func (d DensityMethod) String() string {
	if d == DensityPurify {
		return "purification"
	}
	return "eigensolve"
}

// Config controls an SCF run.
type Config struct {
	Mode      Mode
	Density   DensityMethod
	MaxIters  int     // default 50
	ConvTol   float64 // max-abs density change; default 1e-6
	ScreenTol float64 // Schwarz tolerance; default 1e-10 (the paper's)
	Threads   int     // 0 = all CPUs
	Damping   float64 // fraction of the old density retained; default 0.3
	// UseDIIS enables Pulay convergence acceleration; damping is then
	// ignored (DIIS supplies the mixing).
	UseDIIS bool
}

func (c Config) withDefaults() Config {
	if c.MaxIters == 0 {
		c.MaxIters = 50
	}
	if c.ConvTol == 0 {
		c.ConvTol = 1e-6
	}
	if c.ScreenTol == 0 {
		c.ScreenTol = 1e-10
	}
	if c.Damping == 0 {
		c.Damping = 0.3
	}
	return c
}

// Timings breaks an SCF run into the Table VI components.
type Timings struct {
	Precomp time.Duration // ERI precomputation (HF-Mem only, once)
	Fock    time.Duration // total Fock-build time across iterations
	Density time.Duration // total density-build time across iterations
}

// EnergyComponents decomposes the total energy (all in Hartree).
type EnergyComponents struct {
	Kinetic           float64 // 2 Tr(D T), positive
	NuclearAttraction float64 // 2 Tr(D V), negative for bound electrons
	TwoElectron       float64 // Tr(D G), electron-electron repulsion
	NuclearRepulsion  float64
}

// Result summarizes an SCF run.
type Result struct {
	Molecule    string
	Mode        Mode
	Energy      float64 // total energy, Hartree
	Components  EnergyComponents
	Iterations  int
	Converged   bool
	NonScreened int64 // surviving unique ERI quartets
	// StoredERIBytes is the HF-Mem value-storage footprint at 8 bytes
	// per surviving quartet (the Table V accounting).
	StoredERIBytes units.Bytes
	Timings        Timings
	Total          time.Duration
}

// FockPerIter returns the mean Fock-build time per iteration.
func (r *Result) FockPerIter() time.Duration {
	if r.Iterations == 0 {
		return 0
	}
	return r.Timings.Fock / time.Duration(r.Iterations)
}

// DensityPerIter returns the mean density-build time per iteration.
func (r *Result) DensityPerIter() time.Duration {
	if r.Iterations == 0 {
		return 0
	}
	return r.Timings.Density / time.Duration(r.Iterations)
}

// storedQuartet is one retained ERI for HF-Mem.
type storedQuartet struct {
	i, j, k, l int32
	v          float64
}

// Run executes the restricted Hartree-Fock SCF procedure.
func Run(mol *Molecule, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := mol.NumFunctions()
	nOcc := mol.OccupiedOrbitals()
	if nOcc > n {
		return nil, fmt.Errorf("hf: %d occupied orbitals exceed %d basis functions", nOcc, n)
	}
	start := time.Now()
	res := &Result{Molecule: mol.Name, Mode: cfg.Mode}

	s := mol.OverlapMatrix()
	h := mol.CoreHamiltonian()
	x := linalg.SymInvSqrt(s)
	pairs := BuildPairs(mol, cfg.Threads)
	res.NonScreened = pairs.CountNonScreened(cfg.ScreenTol)
	res.StoredERIBytes = units.Bytes(res.NonScreened) * 8

	var stored []storedQuartet
	if cfg.Mode == HFMem {
		t0 := time.Now()
		stored = make([]storedQuartet, 0, res.NonScreened)
		pairs.VisitNonScreened(cfg.ScreenTol, func(a, b int) {
			i, j := pairs.I[a], pairs.J[a]
			k, l := pairs.I[b], pairs.J[b]
			v := ERI(mol.Basis[i], mol.Basis[j], mol.Basis[k], mol.Basis[l])
			stored = append(stored, storedQuartet{i, j, k, l, v})
		})
		res.Timings.Precomp = time.Since(t0)
	}

	// Initial guess: core Hamiltonian.
	d := densityStep(h, x, nOcc, cfg.Density)
	var f *linalg.Matrix
	var accel *diis
	if cfg.UseDIIS {
		accel = newDIIS(6)
	}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		res.Iterations = iter

		t0 := time.Now()
		if cfg.Mode == HFMem {
			f = fockFromStored(h, d, stored, cfg.Threads)
		} else {
			f = fockRecompute(mol, h, d, pairs, cfg.ScreenTol, cfg.Threads)
		}
		if accel != nil {
			e := diisError(f, d, s)
			accel.push(f, e)
			if fx := accel.extrapolate(); fx != nil {
				f = fx
			}
		}
		res.Timings.Fock += time.Since(t0)

		t0 = time.Now()
		dNew := densityStep(f, x, nOcc, cfg.Density)
		res.Timings.Density += time.Since(t0)

		delta := linalg.MaxAbsDiff(dNew, d)
		if accel != nil {
			// DIIS supplies the mixing; take the new density directly.
			copy(d.Data, dNew.Data)
		} else {
			// Damped update stabilizes the synthetic systems.
			for kk := range d.Data {
				d.Data[kk] = (1-cfg.Damping)*dNew.Data[kk] + cfg.Damping*d.Data[kk]
			}
		}
		if delta < cfg.ConvTol {
			res.Converged = true
			break
		}
	}

	// E = sum_ij D_ij (H_ij + F_ij) + E_nuc (closed-shell convention with
	// D built from doubly occupied orbitals carrying unit weight).
	var elec float64
	for k := range d.Data {
		elec += d.Data[k] * (h.Data[k] + f.Data[k])
	}
	res.Energy = elec + mol.NuclearRepulsion()

	// Decomposition: E = 2 Tr(D T) + 2 Tr(D V) + Tr(D G) + E_nucrep.
	tm := mol.KineticMatrix()
	vm := mol.NuclearMatrix()
	for k := range d.Data {
		res.Components.Kinetic += 2 * d.Data[k] * tm.Data[k]
		res.Components.NuclearAttraction += 2 * d.Data[k] * vm.Data[k]
		res.Components.TwoElectron += d.Data[k] * (f.Data[k] - h.Data[k])
	}
	res.Components.NuclearRepulsion = mol.NuclearRepulsion()

	res.Total = time.Since(start)
	return res, nil
}

// densityStep solves the Roothaan equation in the orthogonal basis:
// F' = X F X, then either eigensolve + occupy (C = X C',
// D = C_occ C_occ^T) or McWeeny purification of F' followed by the
// back-transform D = X D' X.
func densityStep(f, x *linalg.Matrix, nOcc int, method DensityMethod) *linalg.Matrix {
	n := f.N
	tmp := linalg.NewMatrix(n)
	fp := linalg.NewMatrix(n)
	linalg.MatMul(tmp, x, f)
	linalg.MatMul(fp, tmp, x)
	// Symmetrize against round-off.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (fp.At(i, j) + fp.At(j, i)) / 2
			fp.Set(i, j, v)
			fp.Set(j, i, v)
		}
	}
	if method == DensityPurify {
		dp, err := linalg.McWeenyPurify(fp, nOcc, 1e-11, 300)
		if err == nil {
			d := linalg.NewMatrix(n)
			linalg.MatMul(tmp, x, dp)
			linalg.MatMul(d, tmp, x)
			return d
		}
		// Purification can stall when HOMO and LUMO are degenerate
		// mid-SCF; fall back to the eigensolver for this step.
	}
	_, cp := linalg.JacobiEigen(fp)
	c := linalg.NewMatrix(n)
	linalg.MatMul(c, x, cp)
	return linalg.DensityFromOrbitals(c, nOcc)
}

// FockReference builds G_ab = sum_cd D_cd (2(ab|cd) - (ac|bd)) by direct
// quadruple loop with no screening or symmetry — the oracle the fast
// builders are tested against.
func FockReference(mol *Molecule, h, d *linalg.Matrix) *linalg.Matrix {
	n := mol.NumFunctions()
	f := h.Clone()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var g float64
			for c := 0; c < n; c++ {
				for dd := 0; dd < n; dd++ {
					g += d.At(c, dd) * (2*ERI(mol.Basis[a], mol.Basis[b], mol.Basis[c], mol.Basis[dd]) -
						ERI(mol.Basis[a], mol.Basis[c], mol.Basis[b], mol.Basis[dd]))
				}
			}
			f.Add(a, b, g)
		}
	}
	return f
}

// applyQuartet adds one ERI value's contributions to G for every distinct
// permutation image of the canonical quartet: for an image (a,b,c,d),
// the Coulomb term adds 2 v D[c,d] to G[a,b] and the exchange term
// subtracts v D[b,d] from G[a,c].
func applyQuartet(g, d *linalg.Matrix, i, j, k, l int32, v float64) {
	type img struct{ a, b, c, dd int32 }
	images := [8]img{
		{i, j, k, l}, {j, i, k, l}, {i, j, l, k}, {j, i, l, k},
		{k, l, i, j}, {l, k, i, j}, {k, l, j, i}, {l, k, j, i},
	}
	n := 0
	var seen [8]img
	for _, im := range images {
		dup := false
		for s := 0; s < n; s++ {
			if seen[s] == im {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[n] = im
		n++
		g.Add(int(im.a), int(im.b), 2*v*d.At(int(im.c), int(im.dd)))
		g.Add(int(im.a), int(im.c), -v*d.At(int(im.b), int(im.dd)))
	}
}

// fockFromStored builds F = H + G(D) from the precomputed quartet list
// on the persistent worker team, with per-worker accumulators. The
// split is static (every stored quartet costs the same) so the
// per-worker partial sums merge in a deterministic order and the SCF
// trajectory is bit-reproducible for a fixed worker count.
func fockFromStored(h, d *linalg.Matrix, stored []storedQuartet, threads int) *linalg.Matrix {
	workers := parallel.Workers(threads)
	parts := make([]*linalg.Matrix, workers)
	parallel.StaticFor(workers, len(stored), func(w, lo, hi int) {
		g := linalg.NewMatrix(h.N)
		for _, q := range stored[lo:hi] {
			applyQuartet(g, d, q.i, q.j, q.k, q.l, q.v)
		}
		parts[w] = g
	})
	f := h.Clone()
	for _, g := range parts {
		if g == nil {
			continue
		}
		for k := range f.Data {
			f.Data[k] += g.Data[k]
		}
	}
	return f
}

// fockRecompute builds F = H + G(D) by walking the surviving quartets and
// recomputing each ERI — the HF-Comp inner loop — in parallel with
// per-worker accumulators.
func fockRecompute(mol *Molecule, h, d *linalg.Matrix, pairs *PairList, tol float64, threads int) *linalg.Matrix {
	workers := parallel.Workers(threads)
	parts := make([]*linalg.Matrix, workers)
	for w := range parts {
		parts[w] = linalg.NewMatrix(h.N)
	}
	pairs.VisitNonScreenedParallel(tol, workers, func(w, a, b int) {
		i, j := pairs.I[a], pairs.J[a]
		k, l := pairs.I[b], pairs.J[b]
		v := ERI(mol.Basis[i], mol.Basis[j], mol.Basis[k], mol.Basis[l])
		applyQuartet(parts[w], d, i, j, k, l, v)
	})
	f := h.Clone()
	for _, g := range parts {
		for k := range f.Data {
			f.Data[k] += g.Data[k]
		}
	}
	return f
}
