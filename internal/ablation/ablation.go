// Package ablation quantifies the POWER8 design choices the paper calls
// out, by re-running the machine model with individual features removed:
//
//   - the NUCA victim L3 (Section II-A: "each L3 also serving requests
//     for other cores, and working as a victim cache for other L3s");
//   - the multi-route inter-group fabric (Section III-B's explanation of
//     why inter-group bandwidth exceeds intra-group);
//   - the asymmetric 2:1 read:write Centaur links (Section II-A);
//   - the large architected register file (Section III-C's two-level
//     register hierarchy);
//   - DCBT software hints versus a faster hardware detector
//     (Section III-D).
//
// Each study returns a with/without comparison plus the factor the
// feature is worth, and is exercised by tests that pin the direction and
// rough magnitude of every conclusion.
package ablation

import (
	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/prefetch"
	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/units"
)

// Comparison is one with/without result.
type Comparison struct {
	Name    string
	With    float64
	Without float64
	Unit    string
}

// Factor returns the benefit ratio, oriented so that > 1 means the
// feature helps (for latencies, Without/With; for bandwidths, With/Without
// — the caller picks by constructing the comparison accordingly).
func (c Comparison) Factor() float64 {
	if c.With == 0 {
		return 0
	}
	return c.Without / c.With
}

// VictimL3 measures the chase latency of a working set that fits the
// chip-level L3 but not the core-local region (32 MiB), with and without
// the NUCA lateral castout. Without it, those misses fall to the Centaur
// L4.
func VictimL3(m *machine.Machine) Comparison {
	chase := trace.NewChase(0, 32*1024*1024/128, 1, 42)
	run := func(disable bool) float64 {
		w := m.NewWalker(machine.WalkerConfig{
			DisablePrefetch: true,
			DisableVictimL3: disable,
		})
		chase.Reset()
		w.Run(chase, 0) // warm lap
		chase.Reset()
		return w.Run(chase, 0).AvgNs()
	}
	return Comparison{
		Name:    "NUCA victim L3 (32 MiB chase latency)",
		With:    run(false),
		Without: run(true),
		Unit:    "ns",
	}
}

// InterGroupRouting compares the inter-group pair bandwidth with the
// multi-route protocol against a hypothetical single-route fabric that
// only uses the direct A-bus bundle.
func InterGroupRouting(spec *arch.SystemSpec) Comparison {
	multi := fabric.New(spec.Topology, spec.Latency, fabric.E870Calibration())
	single := fabric.E870Calibration()
	single.InterGroupRouteCapGBs = 3 * arch.ABusLaneGBs // direct bundle only
	direct := fabric.New(spec.Topology, spec.Latency, single)
	return Comparison{
		Name:    "multi-route inter-group bandwidth (chip0->chip5)",
		With:    multi.PairBandwidth(0, 5, false).GBps(),
		Without: direct.PairBandwidth(0, 5, false).GBps(),
		Unit:    "GB/s",
	}
}

// AsymmetricLinks compares the best streaming mix on the real asymmetric
// Centaur links (2 read : 1 write) against a symmetric design with the
// same total raw bandwidth, answering "what does the 2:1 specialization
// buy a 2:1 workload, and what does it cost a 1:1 workload".
type AsymmetricResult struct {
	At2to1 Comparison
	At1to1 Comparison
}

// AsymmetricLinks runs the study. The symmetric strawman splits the
// 28.8 GB/s of raw per-Centaur bandwidth evenly.
func AsymmetricLinks() AsymmetricResult {
	real := memsys.New(arch.E870(), memsys.E870Calibration())
	symSpec := arch.E870()
	symSpec.Memory.Centaur.ReadLink = units.GBps(14.4)
	symSpec.Memory.Centaur.WriteLink = units.GBps(14.4)
	sym := memsys.New(symSpec, memsys.E870Calibration())
	return AsymmetricResult{
		At2to1: Comparison{
			Name:    "asymmetric links at the 2:1 mix",
			With:    real.SystemStream(2.0 / 3).GBps(),
			Without: sym.SystemStream(2.0 / 3).GBps(),
			Unit:    "GB/s",
		},
		At1to1: Comparison{
			Name:    "asymmetric links at the 1:1 mix",
			With:    real.SystemStream(0.5).GBps(),
			Without: sym.SystemStream(0.5).GBps(),
			Unit:    "GB/s",
		},
	}
}

// RegisterFile evaluates the Figure 5 worst point (12 FMAs x 8 threads,
// 192 registers demanded) on register files of different sizes: the
// POWER7-sized 64, the POWER8 128, and a hypothetical 256.
func RegisterFile() []Comparison {
	base := arch.POWER8(8, 4.35)
	k := smt.FMAKernel{FMAs: 12, Threads: 8}
	out := make([]Comparison, 0, 3)
	for _, regs := range []int{64, 128, 256} {
		chip := base
		chip.ArchVSXRegs = regs
		out = append(out, Comparison{
			Name:    "12 FMAs x 8 threads fraction of peak",
			With:    smt.FractionOfPeak(chip, k),
			Without: float64(regs),
			Unit:    "fraction (Without = architected registers)",
		})
	}
	return out
}

// DCBTVersusFasterDetector asks whether a hardware detector that locks on
// after a single access (DetectAfter=1) would make the DCBT instruction
// unnecessary for the paper's small-block workload. It returns the scan
// bandwidth of 8-line random blocks under the normal detector, the
// 1-access detector, and DCBT hints.
type DetectorResult struct {
	NormalDetector units.Bandwidth
	FastDetector   units.Bandwidth
	DCBT           units.Bandwidth
}

// DCBTVersusFasterDetector runs the study.
func DCBTVersusFasterDetector(m *machine.Machine) DetectorResult {
	const blockLines = 8
	const blocks = 1 << 14
	run := func(detectAfter int, hint bool) units.Bandwidth {
		g := trace.NewBlockedRandom(0, blocks, blockLines, 7)
		w := m.NewWalker(machine.WalkerConfig{
			Prefetch: prefetch.Config{DSCR: 7, DetectAfter: detectAfter},
		})
		var ns float64
		var n uint64
		for {
			atStart := g.BlockStart()
			addr, ok := g.Next()
			if !ok {
				break
			}
			if hint && atStart {
				w.Hint(addr, blockLines, 1)
			}
			ns += w.Access(addr)
			n++
		}
		return machine.WalkResult{Accesses: n, TotalNs: ns}.ThreadBandwidth()
	}
	return DetectorResult{
		NormalDetector: run(3, false),
		FastDetector:   run(1, false),
		DCBT:           run(3, true),
	}
}
