// Command p8sim answers ad-hoc latency and bandwidth questions against
// the POWER8 E870 machine model.
//
// Usage examples:
//
//	p8sim -latency -from 0 -to 5            # demand + prefetched latency
//	p8sim -stream -reads 2 -writes 1        # Table III-style bandwidth
//	p8sim -random -threads 8 -lists 4       # Figure 4-style bandwidth
//	p8sim -fma -fmas 12 -threads 6          # Figure 5-style throughput
//	p8sim -roofline -oi 0.8                 # attainable GFLOP/s at an OI
//	p8sim -chase -ws 33554432               # simulate a pointer chase
//	p8sim -chase -ws 33554432 -stats        # ...plus the walker's counters
//	p8sim -random -faults worst-day         # ...against a degraded machine
//	p8sim -random -stats -shards 8          # sharded DES cross-check
//
// -stats prints the simulation counters the queried model paths
// produced (the -chase walker's per-level hits and misses, the -random
// DES engine's event and bank figures); see DESIGN.md "Observability".
//
// -shards picks the DES shard count for the -random cross-check: 0
// (default) auto-sizes to the host, 1 forces the sequential merged
// engine, larger divisors of the socket count run parallel shard
// workers. Results are bit-identical at every legal value (see
// DESIGN.md "Sharded DES"); the knob only trades wall time.
//
// -faults derives a RAS-degraded machine variant through internal/fault
// (canned plan name or event grammar) and answers the queries against
// it instead of the healthy E870.
//
// Query parameters are validated up front against the machine spec:
// out-of-range values get a one-line message plus the usage text and
// exit status 2 instead of a model panic.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/roofline"
	"repro/internal/smt"
	"repro/internal/trace"
)

func main() {
	var (
		doLatency  = flag.Bool("latency", false, "chip-to-chip memory latency")
		doStream   = flag.Bool("stream", false, "streaming bandwidth at a read:write mix")
		doRandom   = flag.Bool("random", false, "random-access bandwidth")
		doFMA      = flag.Bool("fma", false, "FMA throughput")
		doRoofline = flag.Bool("roofline", false, "roofline bound at an operational intensity")
		doChase    = flag.Bool("chase", false, "simulate a dependent-load pointer chase")

		from    = flag.Int("from", 0, "requesting chip")
		to      = flag.Int("to", 0, "memory home chip")
		reads   = flag.Float64("reads", 2, "read parts of the mix")
		writes  = flag.Float64("writes", 1, "write parts of the mix")
		threads = flag.Int("threads", 8, "threads per core")
		lists   = flag.Int("lists", 4, "concurrent lists per thread")
		fmas    = flag.Int("fmas", 12, "independent FMAs per loop")
		oi      = flag.Float64("oi", 1.0, "operational intensity (FLOP/byte)")
		ws      = flag.Int64("ws", 32<<20, "chase working set in bytes")
		huge    = flag.Bool("huge", false, "use 16 MiB pages for the chase")
		stats   = flag.Bool("stats", false, "print simulation counters after the queries")
		faults  = flag.String("faults", "", "answer against a degraded machine derived through this fault plan")
		shards  = flag.Int("shards", 0, "DES shard count for the -random cross-check (0 = auto, must divide the socket count)")
	)
	flag.Parse()

	spec := power8.E870Spec()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "p8sim:", err)
		flag.Usage()
		os.Exit(2)
	}
	// Pre-validate the query parameters each selected mode will use; the
	// model constructors panic on bad input by contract, so the CLI
	// checks ranges first and reports them gently.
	switch {
	case *doLatency && (*from < 0 || *from >= spec.Topology.Chips):
		fail(fmt.Errorf("-from chip %d out of range [0,%d)", *from, spec.Topology.Chips))
	case *doLatency && (*to < 0 || *to >= spec.Topology.Chips):
		fail(fmt.Errorf("-to chip %d out of range [0,%d)", *to, spec.Topology.Chips))
	case *doStream && (*reads < 0 || *writes < 0 || *reads+*writes == 0):
		fail(fmt.Errorf("-reads/-writes must be non-negative with a positive sum, got %g:%g", *reads, *writes))
	case (*doRandom || *doFMA) && (*threads < 1 || *threads > spec.Chip.ThreadsPerCore):
		fail(fmt.Errorf("-threads %d out of range [1,%d] (SMT%d cores)", *threads, spec.Chip.ThreadsPerCore, spec.Chip.ThreadsPerCore))
	case *doRandom && *lists < 1:
		fail(fmt.Errorf("-lists must be at least 1, got %d", *lists))
	case *doFMA && *fmas < 1:
		fail(fmt.Errorf("-fmas must be at least 1, got %d", *fmas))
	case *doRoofline && *oi <= 0:
		fail(fmt.Errorf("-oi must be positive, got %g", *oi))
	case *doChase && *ws < 128:
		fail(fmt.Errorf("-ws must cover at least one 128-byte line, got %d", *ws))
	case *shards != 0 && !machine.ShardCountValid(spec, *shards):
		fail(fmt.Errorf("-shards %d does not divide the %d-socket topology (use 0 for auto or a divisor of %d)",
			*shards, spec.Topology.Chips, spec.Topology.Chips))
	}

	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry("p8sim")
	}

	m := power8.NewE870()
	if *faults != "" {
		plan, err := fault.Parse(*faults)
		if err == nil {
			err = plan.Validate(spec)
		}
		if err != nil {
			fail(err)
		}
		m = plan.Derive(spec)
		fmt.Printf("machine: %s\n", m.Spec.Name)
	}
	ran := false

	if *doLatency {
		ran = true
		src, dst := arch.ChipID(*from), arch.ChipID(*to)
		fmt.Printf("chip%d -> chip%d: demand %.0f ns, prefetched %.1f ns\n",
			src, dst, m.DemandLatencyNs(src, dst), m.PrefetchedLatencyNs(src, dst))
		if src != dst {
			fmt.Printf("one-direction %v, bi-direction %v\n",
				m.Net.PairBandwidth(src, dst, false), m.Net.PairBandwidth(src, dst, true))
		}
	}
	if *doStream {
		ran = true
		f := memsys.ReadShare(*reads, *writes)
		fmt.Printf("%.0f:%.0f mix (read share %.3f): %v system, %v per chip\n",
			*reads, *writes, f, m.Mem.SystemStream(f), m.Mem.StreamBandwidth(f, 1))
	}
	if *doRandom {
		ran = true
		fmt.Printf("%d threads/core x %d lists: %v\n",
			*threads, *lists, m.RandomAccessBandwidth(*threads, *lists))
		if reg != nil {
			// The analytic answer above has no events to count; run the
			// DES cross-check so the stats show the queueing internals.
			bw := m.SimulateRandomAccessSharded(*threads, *lists, 200_000, *shards, reg, nil)
			fmt.Printf("DES cross-check: %v\n", bw)
		}
	}
	if *doFMA {
		ran = true
		k := smt.FMAKernel{FMAs: *fmas, Threads: *threads}
		fmt.Printf("%d FMAs x %d threads: %.1f%% of peak (%v/core, %d registers)\n",
			*fmas, *threads, 100*smt.FractionOfPeak(m.Spec.Chip, k),
			smt.CoreGFlops(m.Spec.Chip, k), k.RegistersUsed())
	}
	if *doRoofline {
		ran = true
		main := roofline.ForSystem(m.Spec)
		wo := roofline.WriteOnly(m.Spec)
		bound := "memory"
		if !main.MemoryBound(*oi) {
			bound = "compute"
		}
		fmt.Printf("OI %.3f: %v attainable (%s bound); write-only ceiling %v\n",
			*oi, main.Attainable(*oi), bound, wo.Attainable(*oi))
	}
	if *doChase {
		ran = true
		lines := int(*ws / 128)
		page := arch.Page64K
		if *huge {
			page = arch.Page16M
		}
		w := m.NewWalker(machine.WalkerConfig{Page: page, DisablePrefetch: true, Obs: reg})
		chase := trace.NewChase(0, lines, 1, 42)
		w.Run(chase, 0) // warm lap
		chase.Reset()
		res := w.Run(chase, 2_000_000)
		fmt.Printf("chase over %d bytes (%v pages): %.2f ns/access\n", *ws, page, res.AvgNs())
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if reg != nil {
		if s := reg.Snapshot(); !s.Empty() {
			fmt.Println("\nsimulation counters:")
			obs.WriteMarkdown(os.Stdout, s)
		}
	}
}
