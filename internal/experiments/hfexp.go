package experiments

import (
	"repro/internal/hf"
	"repro/internal/perfmodel"
)

// screenTol is the paper's screening tolerance.
const screenTol = 1e-10

func runTable5(ctx *Context) *Report {
	r := newReport("table5", "Table V: Test molecular systems")
	specs := hf.TableV()
	if ctx.Quick {
		// The full basis sets take ~20s; the smallest system alone
		// exercises the whole path.
		specs = specs[3:4] // 1hsg-28
	}
	r.Printf("%-14s %6s %10s %16s %14s %20s", "molecule", "atoms", "functions",
		"non-screened", "memory (GB)", "paper ERIs / GB")
	for _, s := range specs {
		mol := s.Build()
		pairs := hf.BuildPairs(mol, 0)
		entries := pairs.CountNonScreenedEntries(screenTol)
		memGB := float64(entries) * 8 / 1e9
		r.Printf("%-14s %6d %10d %16.3g %14.1f %12.3g / %.1f",
			s.Name, s.Atoms, mol.NumFunctions(), float64(entries), memGB,
			s.PaperERIs, s.PaperMemoryGB)
		r.Checkf(s.Name+" atoms", float64(len(mol.Atoms)), float64(s.Atoms), 0)
		r.Checkf(s.Name+" basis functions", float64(mol.NumFunctions()), float64(s.Functions), 0)
		r.CheckRatio(s.Name+" non-screened ERIs", float64(entries), s.PaperERIs, 3)
		r.CheckRatio(s.Name+" ERI memory GB", memGB, s.PaperMemoryGB, 3)
		r.CheckMin(s.Name+" exceeds a 64 GB commodity node (GB)", memGB, 64)
	}
	r.Note("synthetic geometries + even-tempered s basis stand in for the unavailable coordinates and cc-pVDZ; atom and function counts match Table V exactly, screening tolerance 1e-10 as in the paper")
	return r
}

func runTable6(ctx *Context) *Report {
	r := newReport("table6", "Table VI: Timings for HF-Comp and HF-Mem on E870")

	// Projection: stage costs calibrated on alkane-842 only; the other
	// four molecules are predictions (cross-validation).
	rows := perfmodel.ProjectTableVI(0)
	specs := hf.TableV()
	r.Printf("%-14s %6s %10s | %9s %8s %9s %9s | %8s", "molecule", "iters",
		"HF-Comp", "Precomp", "Fock", "Density", "Total", "Speedup")
	for i, row := range rows {
		s := specs[i]
		r.Printf("%-14s %6d %9.1fs | %8.1fs %7.2fs %8.2fs %8.1fs | %7.2fx",
			row.Molecule, row.Iters, row.HFComp, row.Precomp, row.Fock, row.Density, row.Total, row.Speedup)
		tolComp, tolTotal := 0.30, 0.25
		if i == 0 {
			tolComp, tolTotal = 0.02, 0.02 // the calibration anchor
		}
		r.Checkf(s.Name+" HF-Comp s", row.HFComp, s.PaperHFComp, tolComp)
		r.Checkf(s.Name+" Precomp s", row.Precomp, s.PaperPrecomp, 0.20)
		r.Checkf(s.Name+" Fock s/iter", row.Fock, s.PaperFock, 0.20)
		r.CheckRatio(s.Name+" Density s/iter", row.Density, s.PaperDensity, 2.5)
		r.Checkf(s.Name+" HF-Mem total s", row.Total, s.PaperTotal, tolTotal)
		r.CheckMin(s.Name+" HF-Mem speedup (paper 3-5.3x)", row.Speedup, 2.5)
	}
	r.Note("stage costs calibrated on alkane-842 alone; all other rows are predictions compared against the paper (cross-validation)")

	// Real end-to-end SCF at host scale: both algorithms must agree and
	// HF-Mem must win on wall clock.
	maxFuncs := 60
	if !ctx.Quick {
		maxFuncs = 120
	}
	spec := hf.TableV()[3].Scaled(maxFuncs) // 1hsg-28, shrunk
	mol := spec.Build()
	comp, err := hf.Run(mol, hf.Config{Mode: hf.HFComp}) //p8:allow determinism: deliberate host measurement — SCF wall times are reported as labeled host references and only ratio-checked, never fingerprinted
	if err != nil {
		r.Note("host SCF failed: %v", err)
		return r
	}
	mem, err := hf.Run(mol, hf.Config{Mode: hf.HFMem}) //p8:allow determinism: deliberate host measurement — SCF wall times are reported as labeled host references and only ratio-checked, never fingerprinted
	if err != nil {
		r.Note("host SCF failed: %v", err)
		return r
	}
	r.Hostf("host SCF on %s (n_f=%d): HF-Comp %.2fs vs HF-Mem %.2fs (%.2fx), E = %.6f vs %.6f Ha",
		spec.Name, mol.NumFunctions(), comp.Total.Seconds(), mem.Total.Seconds(),
		comp.Total.Seconds()/mem.Total.Seconds(), comp.Energy, mem.Energy)
	r.Checkf("host energies agree (Ha)", mem.Energy, comp.Energy, 1e-6)
	r.HostCheckMin("host HF-Mem also faster (x)", comp.Total.Seconds()/mem.Total.Seconds(), 1.1)
	conv := 0.0
	if comp.Converged && mem.Converged {
		conv = 1
	}
	r.Checkf("host SCF converged (1 = yes)", conv, 1, 0)
	return r
}
