// Package micro drives the machine model through the paper's
// microbenchmarks and returns the series behind each Section III table
// and figure: the lmbench-style latency curve (Figure 2), the STREAM
// ratio table (Table III), the bandwidth scaling curves (Figure 3), the
// SMP interconnect table (Table IV), random-access bandwidth (Figure 4),
// the FMA throughput surface (Figure 5), and the prefetching studies
// (Figures 6-8).
package micro

import (
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/units"
)

// LatPoint is one sample of the Figure 2 latency curve.
type LatPoint struct {
	WorkingSet units.Bytes
	AvgNs      float64
}

// Figure2Sizes returns the default working-set sweep: roughly
// logarithmic from 16 KiB to 512 MiB with extra resolution around the
// cache boundaries and the 3 MiB ERAT reach.
func Figure2Sizes() []units.Bytes {
	kib := []int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
		1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
		24576, 32768, 49152, 65536, 98304, 131072, 196608, 262144, 393216, 524288}
	out := make([]units.Bytes, len(kib))
	for i, k := range kib {
		out[i] = units.Bytes(k) * units.KiB
	}
	return out
}

// LatencyCurves measures the Figure 2 pointer-chase latency for each
// working-set size at each of the given page sizes, prefetching disabled
// (as the paper configures lmbench); curves[p][i] is pages[p] at
// sizes[i]. maxAccesses caps the measured accesses per point (<= 0 means
// a full lap) to bound runtime on large sets; a full warm lap always
// precedes measurement. Each working set's chase is built once and
// rewound for every lap at every page size. A non-nil reg aggregates
// every point's walker counters (nil runs uninstrumented); a non-nil
// budget charges one unit per access and trips the harness watchdog
// when exhausted.
func LatencyCurves(m *machine.Machine, pages []arch.PageSize, sizes []units.Bytes, maxAccesses int, reg *obs.Registry, budget *engine.Budget) [][]LatPoint {
	curves := make([][]LatPoint, len(pages))
	for p := range curves {
		curves[p] = make([]LatPoint, 0, len(sizes))
	}
	for _, ws := range sizes {
		lines := int(ws / 128)
		if lines < 2 {
			continue
		}
		chase := trace.NewChase(0, lines, 1, 42)
		for p, page := range pages {
			w := m.NewWalker(machine.WalkerConfig{Page: page, DisablePrefetch: true, Obs: reg, Budget: budget})
			// The warm lap always covers the whole working set: capping it
			// would leave only a cache-sized warmed prefix and the measured
			// pass would hit the wrong level.
			chase.Reset()
			w.Run(chase, 0)
			chase.Reset()
			res := w.Run(chase, maxAccesses)
			curves[p] = append(curves[p], LatPoint{WorkingSet: ws, AvgNs: res.AvgNs()})
		}
	}
	return curves
}
