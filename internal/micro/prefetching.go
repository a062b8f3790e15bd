package micro

import (
	"repro/internal/arch"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/units"
)

// DSCRPoint is one sample of Figure 6: sequential latency and bandwidth
// at one DSCR prefetch-depth setting.
type DSCRPoint struct {
	DSCR      int
	LatencyNs float64
	Bandwidth units.Bandwidth
}

// Figure6 sweeps the DSCR depth 1..7 over a long sequential scan. The
// latency is the walker's per-line average; the bandwidth scales the
// per-thread rate to two threads per core (as in Figure 8: at full SMT
// even the prefetch-free scan would saturate the links and the depth
// effect would vanish into the ceiling), capped by the 2:1 link bound.
func Figure6(m *machine.Machine, lines int, reg *obs.Registry) []DSCRPoint {
	const threadsPerCore = 2
	if lines <= 0 {
		lines = 1 << 17
	}
	threads := threadsPerCore * m.Spec.TotalCores()
	out := make([]DSCRPoint, 0, 7)
	for dscr := 1; dscr <= 7; dscr++ {
		w := m.NewWalker(machine.WalkerConfig{
			Prefetch: prefetch.Config{DSCR: dscr},
			Obs:      reg,
		})
		res := w.Run(trace.NewSequential(0, lines), 0)
		total := float64(res.ThreadBandwidth()) * float64(threads)
		if limit := float64(m.Mem.StreamBandwidth(2.0/3, m.Spec.Topology.Chips)); total > limit {
			total = limit
		}
		out = append(out, DSCRPoint{
			DSCR:      dscr,
			LatencyNs: res.AvgNs(),
			Bandwidth: units.Bandwidth(total),
		})
	}
	return out
}

// StridePoint is one sample of Figure 7: stride-256 read latency at one
// DSCR depth, with stride-N detection on or off.
type StridePoint struct {
	DSCR      int
	StrideN   bool
	LatencyNs float64
}

// Figure7 sweeps DSCR depths for a stride-256 stream with the stride-N
// facility enabled and disabled. Huge pages keep TLB walks out of the
// measurement, as in the paper's setup.
func Figure7(m *machine.Machine, count int, reg *obs.Registry) []StridePoint {
	if count <= 0 {
		count = 50000
	}
	var out []StridePoint
	for _, strideN := range []bool{false, true} {
		for dscr := 1; dscr <= 7; dscr++ {
			w := m.NewWalker(machine.WalkerConfig{
				Page:     arch.Page16M,
				Prefetch: prefetch.Config{DSCR: dscr, StrideN: strideN},
				Obs:      reg,
			})
			res := w.Run(trace.NewStrided(0, 256, count), 0)
			out = append(out, StridePoint{DSCR: dscr, StrideN: strideN, LatencyNs: res.AvgNs()})
		}
	}
	return out
}

// DCBTPoint is one sample of Figure 8: achieved read bandwidth as a
// fraction of the peak read bandwidth, for one block size, with and
// without the DCBT software hint.
type DCBTPoint struct {
	BlockBytes units.Bytes
	PlainFrac  float64
	HintFrac   float64
}

// Figure8 runs the random-block sequential scan at several block sizes.
// totalLines bounds the footprint per point (<= 0 uses 2^20 lines). The
// scan runs at two threads per core: at full SMT even the un-hinted scan
// saturates the read links and the DCBT effect disappears into the
// ceiling; the paper's sub-saturation percentages imply a moderate
// thread count.
func Figure8(m *machine.Machine, blockBytes []units.Bytes, totalLines int, reg *obs.Registry) []DCBTPoint {
	const threadsPerCore = 2
	if totalLines <= 0 {
		totalLines = 1 << 20
	}
	if len(blockBytes) == 0 {
		blockBytes = []units.Bytes{
			1 * units.KiB, 2 * units.KiB, 4 * units.KiB, 8 * units.KiB,
			16 * units.KiB, 64 * units.KiB, 256 * units.KiB, 1 * units.MiB,
		}
	}
	peak := float64(m.Spec.PeakReadBW())
	out := make([]DCBTPoint, 0, len(blockBytes))
	for _, bb := range blockBytes {
		blockLines := int(bb / 128)
		if blockLines < 1 {
			continue
		}
		plain := dcbtRun(m, totalLines, blockLines, false, reg)
		hint := dcbtRun(m, totalLines, blockLines, true, reg)
		threads := threadsPerCore * m.Spec.TotalCores()
		out = append(out, DCBTPoint{
			BlockBytes: bb,
			PlainFrac:  float64(systemStreamReadOnly(m, plain, threads)) / peak,
			HintFrac:   float64(systemStreamReadOnly(m, hint, threads)) / peak,
		})
	}
	return out
}

// systemStreamReadOnly scales a per-thread read rate to `threads`
// threads, capped by the read-only link bound.
func systemStreamReadOnly(m *machine.Machine, perThread units.Bandwidth, threads int) units.Bandwidth {
	total := float64(perThread) * float64(threads)
	if limit := float64(m.Mem.StreamBandwidth(1, m.Spec.Topology.Chips)); total > limit {
		total = limit
	}
	return units.Bandwidth(total)
}

// dcbtRun scans randomly ordered blocks on one walker thread, optionally
// issuing a DCBT hint at each block start, and returns the thread's rate.
func dcbtRun(m *machine.Machine, totalLines, blockLines int, hint bool, reg *obs.Registry) units.Bandwidth {
	blocks := totalLines / blockLines
	if blocks < 2 {
		blocks = 2
	}
	g := trace.NewBlockedRandom(0, blocks, blockLines, 7)
	w := m.NewWalker(machine.WalkerConfig{Obs: reg})
	var accesses uint64
	var totalNs float64
	for {
		atStart := g.BlockStart()
		addr, ok := g.Next()
		if !ok {
			break
		}
		if hint && atStart {
			w.Hint(addr, blockLines, 1)
		}
		lat := w.Access(addr)
		accesses++
		totalNs += lat
	}
	// The loop drives Access directly (it needs per-block Hint calls),
	// so flush the walker's counters explicitly.
	w.PublishStats()
	return machine.WalkResult{Accesses: accesses, TotalNs: totalNs}.ThreadBandwidth()
}
