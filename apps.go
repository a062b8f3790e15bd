package power8

// Application-layer facade: the paper's Section V workloads, re-exported
// so downstream users of this module can run them without reaching into
// internal packages.

import (
	"repro/internal/graph"
	"repro/internal/hf"
	"repro/internal/jaccard"
	"repro/internal/spmv"
	"repro/internal/units"
)

// CSR is a sparse matrix in compressed sparse row form.
type CSR = graph.CSR

// COO is a triplet list for matrix assembly.
type COO = graph.COO

// RMATConfig parameterizes the R-MAT graph generator.
type RMATConfig = graph.RMATConfig

// MatrixProfile describes one synthetic matrix of the Figure 11 suite.
type MatrixProfile = graph.MatrixProfile

// NewRMAT generates a deduplicated R-MAT adjacency matrix with Graph500
// parameters at the given scale (the paper's Jaccard/SpMV workload).
func NewRMAT(scale int, seed uint64, undirected bool) *CSR {
	cfg := graph.DefaultRMAT(scale, seed)
	cfg.Undirected = undirected
	if undirected {
		cfg.EdgeFactor = 8 // mirrored to the paper's average degree 16
	}
	return graph.RMAT(cfg)
}

// MatrixSuite returns the Figure 11 matrix profiles (Dense plus the UF
// stand-ins); materialize one with GenerateMatrix.
func MatrixSuite() []MatrixProfile { return graph.Suite() }

// GenerateMatrix synthesizes a suite matrix deterministically.
func GenerateMatrix(p MatrixProfile, seed uint64) *CSR { return graph.Generate(p, seed) }

// SpMV computes y = A*x with the row-partitioned CSR kernel
// (Section V-B-1). threads <= 0 uses every CPU.
func SpMV(y []float64, a *CSR, x []float64, threads int) { spmv.CSR(y, a, x, threads) }

// TwoScan is the blocked scaled/reduce SpMV for scale-free graphs
// (Section V-B-2).
type TwoScan = spmv.TwoScan

// NewTwoScan blocks a matrix for the two-scan algorithm.
func NewTwoScan(a *CSR, blockSize int) *TwoScan { return spmv.NewTwoScan(a, blockSize) }

// PageRank runs power iteration over a directed adjacency matrix — one
// of the SpMV consumers the paper names.
func PageRank(g *CSR, damping, tol float64, maxIters, threads int) ([]float64, int) {
	return spmv.PageRank(g, damping, tol, maxIters, threads)
}

// JaccardStats summarizes an all-pairs similarity run.
type JaccardStats = jaccard.Stats

// JaccardEmit receives similar pairs; implementations must be safe for
// concurrent use.
type JaccardEmit = jaccard.Emit

// JaccardTopK collects the K most similar pairs concurrently.
type JaccardTopK = jaccard.TopK

// AllPairsJaccard computes the similarity of every vertex pair sharing a
// neighbor (Section V-A). A nil emit counts without materializing.
func AllPairsJaccard(g *CSR, threads int, emit JaccardEmit) JaccardStats {
	return jaccard.AllPairs(g, threads, emit)
}

// NewJaccardTopK returns a collector for the k most similar pairs; pass
// its Emit method to AllPairsJaccard.
func NewJaccardTopK(k int) *JaccardTopK { return jaccard.NewTopK(k) }

// Molecule is a nuclear geometry plus basis set for Hartree-Fock.
type Molecule = hf.Molecule

// MoleculeSpec identifies one Table V molecular system.
type MoleculeSpec = hf.MoleculeSpec

// HFConfig controls a self-consistent-field run: the ERI strategy, the
// Schwarz tolerance and the worker count. The SCF algorithm itself, a
// DIIS-accelerated Jacobi eigensolve with fixed iteration limits, has
// no settings.
type HFConfig = hf.Config

// HFResult summarizes an SCF run.
type HFResult = hf.Result

// The two ERI strategies Table VI compares.
const (
	HFComp = hf.HFComp // recompute integrals every iteration
	HFMem  = hf.HFMem  // precompute and store them (needs the memory)
)

// TableVMolecules returns the paper's five molecular systems; scale one
// down with its Scaled method for host-sized runs.
func TableVMolecules() []MoleculeSpec { return hf.TableV() }

// RunHF executes restricted Hartree-Fock on a molecule.
func RunHF(mol *Molecule, cfg HFConfig) (*HFResult, error) { return hf.Run(mol, cfg) }

// Bytes is a memory size; Bandwidth a data rate; Rate a FLOP/s
// throughput — the quantity types the model's answers use.
type (
	Bytes     = units.Bytes
	Bandwidth = units.Bandwidth
	Rate      = units.Rate
)
