package perfmodel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/units"
)

// JaccardPoint is one projected sample of Figure 10.
type JaccardPoint struct {
	Scale     int
	Vertices  int
	Ops       float64 // two-hop expansion operations, expected sum over u of d(u)^2
	Pairs     float64 // estimated distinct similar pairs
	TimeSec   float64
	Footprint units.Bytes // input CSR + output pairs
}

// JaccardModel holds the Figure 10 projection constants.
type JaccardModel struct {
	// ThreadsPerCore: the paper runs one thread per core.
	ThreadsPerCore int
	// BytesPerOp: sequential neighbour-list bytes streamed per two-hop
	// operation (one int32 id plus amortized structure overhead).
	BytesPerOp float64
	// The distinct-pairs-per-operation ratio follows a clean geometric
	// law in the R-MAT scale (measured 0.051 at scale 10 growing 1.138x
	// per scale on seeds 1-4; see the perfmodel tests), capped at
	// DedupCap as a pair can only be counted once however sparse the
	// collisions get.
	DedupBase   float64
	DedupGrowth float64
	BaseScale   int
	DedupCap    float64
}

// DefaultJaccardModel returns the Figure 10 constants.
func DefaultJaccardModel() JaccardModel {
	return JaccardModel{
		ThreadsPerCore: 1, BytesPerOp: 6,
		DedupBase: 0.051, DedupGrowth: 1.138, BaseScale: 10, DedupCap: 0.6,
	}
}

// DedupAt returns the modelled distinct-pairs-per-operation ratio at an
// R-MAT scale.
func (jm JaccardModel) DedupAt(scale int) float64 {
	r := jm.DedupBase
	for s := jm.BaseScale; s < scale; s++ {
		r *= jm.DedupGrowth
	}
	for s := scale; s < jm.BaseScale; s++ {
		r /= jm.DedupGrowth
	}
	if r > jm.DedupCap {
		r = jm.DedupCap
	}
	return r
}

// ProjectJaccard projects the all-pairs Jaccard run for one R-MAT scale
// on the modelled machine: the operation count is the expected Σ d(u)²
// of the R-MAT degree sequence, in closed form (graph.RMATDegreeMoments;
// no edge is drawn, so the projection reaches any scale at no cost and
// seed selects nothing); time is the streamed traffic over the bandwidth
// the configured thread count sustains; the footprint is the input CSR
// plus the emitted pairs.
func ProjectJaccard(m *machine.Machine, jm JaccardModel, scale int, seed uint64) JaccardPoint {
	cfg := graph.DefaultRMAT(scale, seed)
	cfg.EdgeFactor = 8 // mirrored to average degree 16, as in the paper
	mom, err := graph.RMATDegreeMoments(cfg)
	if err != nil {
		// DefaultRMAT configurations are valid by construction; an error
		// here is a programming bug, same contract as graph.RMAT.
		panic(err)
	}
	ops, edges := mom.SumSq, mom.Sum
	threads := jm.ThreadsPerCore * m.Spec.TotalCores()
	// Each core runs ThreadsPerCore threads; its sequential rate divided
	// over them is one thread's share.
	perThread := float64(m.Mem.CoreStream(jm.ThreadsPerCore)) / float64(jm.ThreadsPerCore)
	sysBW := perThread * float64(threads)
	if limit := float64(m.Mem.StreamBandwidth(1, m.Spec.Topology.Chips)); sysBW > limit {
		sysBW = limit
	}
	pairs := ops * jm.DedupAt(scale)
	outBytes := pairs * 16
	scanBytes := ops * jm.BytesPerOp
	// Output emission writes at the write-link bound.
	writeBW := float64(m.Mem.StreamBandwidth(0, m.Spec.Topology.Chips))
	t := scanBytes/sysBW + outBytes/writeBW
	input := edges*12 + float64(cfg.Vertices()+1)*8
	return JaccardPoint{
		Scale:     scale,
		Vertices:  cfg.Vertices(),
		Ops:       ops,
		Pairs:     pairs,
		TimeSec:   t,
		Footprint: units.Bytes(outBytes + input),
	}
}

// TwoScanPoint is one projected sample of Figure 12.
type TwoScanPoint struct {
	Scale       int
	GFLOPs      float64
	AvgBlockNNZ float64
}

// TwoScanModel holds the Figure 12 projection constants.
type TwoScanModel struct {
	// BlockBits: log2 of the stripe size in vertices; 16 reproduces the
	// paper's scale-31 block population (~63 elements, about four cache
	// lines), the mechanism behind Figure 12's decline.
	BlockBits int
	// ReadBytesPerNNZ / WriteBytesPerNNZ: streamed traffic of the two
	// scans per nonzero (paper: "for each nonzero we read 10 and write 8
	// bytes" in the first scan; the second reads the scaled values and
	// row ids back).
	ReadBytesPerNNZ  float64
	WriteBytesPerNNZ float64
	// OverheadLines: per-block prefetch ramp cost in cache lines; blocks
	// shorter than this lose most of their streaming efficiency even
	// with DCBT hints (Figure 12's declining tail).
	OverheadLines float64
}

// DefaultTwoScanModel returns the Figure 12 constants: 2^16-wide
// stripes reproduce the paper's scale-31 block population (~4 cache
// lines), and the 11-line overhead is one block-start dependent access
// (~130 ns) expressed in per-line stream times (~11.6 ns).
func DefaultTwoScanModel() TwoScanModel {
	return TwoScanModel{BlockBits: 16, ReadBytesPerNNZ: 24, WriteBytesPerNNZ: 10, OverheadLines: 11}
}

// ProjectTwoScan projects the graph SpMV rate at one R-MAT scale using
// the analytic block-occupancy model: streamed traffic through the mixed
// read/write bandwidth, derated by the per-block prefetch-ramp
// efficiency as blocks empty out at large scales.
func ProjectTwoScan(m *machine.Machine, tm TwoScanModel, scale int) TwoScanPoint {
	cfg := graph.DefaultRMAT(scale, 1)
	gridBits := scale - tm.BlockBits
	if gridBits < 0 {
		gridBits = 0
	}
	st := RMATBlockStats(cfg, gridBits)
	bytesPerNNZ := tm.ReadBytesPerNNZ + tm.WriteBytesPerNNZ
	f := tm.ReadBytesPerNNZ / bytesPerNNZ
	bw := float64(m.Mem.StreamBandwidth(f, m.Spec.Topology.Chips))
	// Block streaming efficiency: a block of L cache lines pays a ramp
	// of OverheadLines before the prefetcher (even DCBT-hinted) streams.
	lines := st.AvgPerBlock * bytesPerNNZ / 2 / 128 // per-scan block footprint
	if lines < 1 {
		lines = 1
	}
	eff := lines / (lines + tm.OverheadLines)
	gflops := 2 * bw * eff / bytesPerNNZ / 1e9
	return TwoScanPoint{Scale: scale, GFLOPs: gflops, AvgBlockNNZ: st.AvgPerBlock}
}

// CSRPoint is one projected bar of Figure 11.
type CSRPoint struct {
	Name   string
	GFLOPs float64
}

// CSRModel holds the Figure 11 projection constants.
type CSRModel struct {
	// SyncOverheadSec: per-SpMV parallel launch/barrier cost; it is what
	// keeps small matrices below the Dense reference.
	SyncOverheadSec float64
	// KindEfficiency derates the streaming bandwidth for matrix kinds
	// whose x accesses defeat the prefetcher.
	KindEfficiency map[graph.MatrixKind]float64
}

// DefaultCSRModel returns the Figure 11 constants.
func DefaultCSRModel() CSRModel {
	return CSRModel{
		SyncOverheadSec: 25e-6,
		KindEfficiency: map[graph.MatrixKind]float64{
			graph.KindDense:    1.0,
			graph.KindBanded:   0.95,
			graph.KindBlocked:  0.95,
			graph.KindRandom:   0.85,
			graph.KindPowerLaw: 0.70,
		},
	}
}

// ProjectCSR projects one matrix's CSR SpMV rate on the machine: 12
// bytes per nonzero (value + column index) plus row-amortized vector and
// row-pointer traffic, through the mostly-read bandwidth bound. The
// input vector is replicated per socket as in the paper and fits every
// suite matrix's x in the chip-level caches, which is why most matrices
// track Dense (the paper's Figure 11 observation).
func ProjectCSR(m *machine.Machine, cm CSRModel, p graph.MatrixProfile) CSRPoint {
	if p.N <= 0 || p.NNZ <= 0 {
		panic(fmt.Sprintf("perfmodel: bad profile %+v", p))
	}
	perRow := float64(p.NNZ) / float64(p.N)
	bytesPerNNZ := 12.0 + (8.0+8.0)/perRow // y write + row pointer per row
	readBytes := float64(p.NNZ) * (12 + 8/perRow)
	writeBytes := float64(p.N) * 8
	f := readBytes / (readBytes + writeBytes)
	bw := float64(m.Mem.StreamBandwidth(f, m.Spec.Topology.Chips))
	if eff, ok := cm.KindEfficiency[p.Kind]; ok {
		bw *= eff
	}
	t := float64(p.NNZ)*bytesPerNNZ/bw + cm.SyncOverheadSec
	return CSRPoint{Name: p.Name, GFLOPs: 2 * float64(p.NNZ) / t / 1e9}
}
