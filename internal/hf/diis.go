package hf

import (
	"repro/internal/linalg"
)

// diis implements Pulay's Direct Inversion in the Iterative Subspace:
// it keeps the last few Fock matrices together with their commutator
// error vectors e = F D S - S D F, and extrapolates the next Fock matrix
// as the error-minimizing linear combination. DIIS is the standard SCF
// accelerator in production quantum chemistry codes; the paper's
// iteration counts (12-23) are typical DIIS-converged runs.
type diis struct {
	maxVectors int
	focks      []*linalg.Matrix
	errs       []*linalg.Matrix
}

func newDIIS(maxVectors int) *diis {
	if maxVectors < 2 {
		maxVectors = 6
	}
	return &diis{maxVectors: maxVectors}
}

// errorVector returns F D S - S D F, which vanishes at SCF convergence.
func diisError(f, d, s *linalg.Matrix) *linalg.Matrix {
	n := f.N
	tmp := linalg.NewMatrix(n)
	fds := linalg.NewMatrix(n)
	linalg.MatMul(tmp, f, d)
	linalg.MatMul(fds, tmp, s)
	sdf := linalg.NewMatrix(n)
	linalg.MatMul(tmp, s, d)
	linalg.MatMul(sdf, tmp, f)
	for k := range fds.Data {
		fds.Data[k] -= sdf.Data[k]
	}
	return fds
}

// push adds a Fock/error pair, dropping the oldest beyond capacity.
func (dx *diis) push(f, e *linalg.Matrix) {
	dx.focks = append(dx.focks, f.Clone())
	dx.errs = append(dx.errs, e)
	if len(dx.focks) > dx.maxVectors {
		dx.focks = dx.focks[1:]
		dx.errs = dx.errs[1:]
	}
}

// extrapolate returns the DIIS linear combination of the stored Fock
// matrices, or nil when the subspace is too small or the B system is
// singular (callers then use the raw Fock matrix).
func (dx *diis) extrapolate() *linalg.Matrix {
	k := len(dx.focks)
	if k < 2 {
		return nil
	}
	// Build the (k+1) x (k+1) DIIS system:
	//   [ B  -1 ] [ c      ]   [ 0 ]
	//   [ -1  0 ] [ lambda ] = [ -1 ]
	// with B_ij = <e_i, e_j>.
	dim := k + 1
	a := make([]float64, dim*dim)
	b := make([]float64, dim)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			var dot float64
			for t := range dx.errs[i].Data {
				dot += dx.errs[i].Data[t] * dx.errs[j].Data[t]
			}
			a[i*dim+j] = dot
		}
		a[i*dim+k] = -1
		a[k*dim+i] = -1
	}
	b[k] = -1
	c, err := linalg.SolveLinear(a, b)
	if err != nil {
		// Discard the oldest vector and let the caller proceed raw;
		// the next push rebuilds a better-conditioned subspace.
		dx.focks = dx.focks[1:]
		dx.errs = dx.errs[1:]
		return nil
	}
	out := linalg.NewMatrix(dx.focks[0].N)
	for i := 0; i < k; i++ {
		ci := c[i]
		for t := range out.Data {
			out.Data[t] += ci * dx.focks[i].Data[t]
		}
	}
	return out
}
