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
	"io"
	"os"

	"repro"
	"repro/internal/arch"
	"repro/internal/memsys"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/roofline"
	"repro/internal/runreq"
	"repro/internal/smt"
	"repro/internal/units"
)

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is the command: args are the program name and its flags (as in
// os.Args), answers go to stdout, diagnostics to stderr, and the return
// value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		doLatency  = fs.Bool("latency", false, "chip-to-chip memory latency")
		doStream   = fs.Bool("stream", false, "streaming bandwidth at a read:write mix")
		doRandom   = fs.Bool("random", false, "random-access bandwidth")
		doFMA      = fs.Bool("fma", false, "FMA throughput")
		doRoofline = fs.Bool("roofline", false, "roofline bound at an operational intensity")
		doChase    = fs.Bool("chase", false, "simulate a dependent-load pointer chase")

		from    = fs.Int("from", 0, "requesting chip")
		to      = fs.Int("to", 0, "memory home chip")
		reads   = fs.Float64("reads", 2, "read parts of the mix")
		writes  = fs.Float64("writes", 1, "write parts of the mix")
		threads = fs.Int("threads", 8, "threads per core")
		lists   = fs.Int("lists", 4, "concurrent lists per thread")
		fmas    = fs.Int("fmas", 12, "independent FMAs per loop")
		oi      = fs.Float64("oi", 1.0, "operational intensity (FLOP/byte)")
		ws      = fs.Int64("ws", 32<<20, "chase working set in bytes")
		huge    = fs.Bool("huge", false, "use 16 MiB pages for the chase")
		stats   = fs.Bool("stats", false, "print simulation counters after the queries")
		faults  = fs.String("faults", "", "answer against a degraded machine derived through this fault plan")
		shards  = fs.Int("shards", 0, "DES shard count for the -random cross-check (0 = auto, must divide the socket count)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	spec := power8.E870Spec()
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "p8sim:", msg)
		fs.Usage()
		return 2
	}
	// Pre-validate the query parameters each selected mode will use; the
	// model constructors panic on bad input by contract, so the CLI
	// checks ranges first and reports them gently.
	switch {
	case *doLatency && (*from < 0 || *from >= spec.Topology.Chips):
		return usage(fmt.Sprintf("-from chip %d out of range [0,%d)", *from, spec.Topology.Chips))
	case *doLatency && (*to < 0 || *to >= spec.Topology.Chips):
		return usage(fmt.Sprintf("-to chip %d out of range [0,%d)", *to, spec.Topology.Chips))
	case *doStream && (*reads < 0 || *writes < 0 || *reads+*writes == 0):
		return usage(fmt.Sprintf("-reads/-writes must be non-negative with a positive sum, got %g:%g", *reads, *writes))
	case (*doRandom || *doFMA) && (*threads < 1 || *threads > spec.Chip.ThreadsPerCore):
		return usage(fmt.Sprintf("-threads %d out of range [1,%d] (SMT%d cores)", *threads, spec.Chip.ThreadsPerCore, spec.Chip.ThreadsPerCore))
	case *doRandom && *lists < 1:
		return usage(fmt.Sprintf("-lists must be at least 1, got %d", *lists))
	case *doFMA && *fmas < 1:
		return usage(fmt.Sprintf("-fmas must be at least 1, got %d", *fmas))
	case *doRoofline && *oi <= 0:
		return usage(fmt.Sprintf("-oi must be positive, got %g", *oi))
	case *doChase && *ws < 256:
		return usage(fmt.Sprintf("-ws must cover at least two 128-byte lines for the chase to cycle, got %d", *ws))
	}
	// The fault plan and the shard count are checked the way every run
	// request is; the experiment list the request resolves to is unused.
	resolved, err := runreq.Resolve(runreq.Request{Faults: *faults, Shards: *shards}, runreq.Machines())
	if err != nil {
		return usage(err.(*runreq.Error).Render(func(field string) string { return "-" + field }))
	}

	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry("p8sim")
	}
	m := resolved.Machine
	if resolved.Plan != nil {
		m = resolved.Plan.Derive(m.Spec)
		fmt.Fprintf(stdout, "machine: %s\n", m.Spec.Name)
	}
	ran := false

	if *doLatency {
		ran = true
		src, dst := arch.ChipID(*from), arch.ChipID(*to)
		fmt.Fprintf(stdout, "chip%d -> chip%d: demand %.0f ns, prefetched %.1f ns\n",
			src, dst, m.DemandLatencyNs(src, dst), m.PrefetchedLatencyNs(src, dst))
		if src != dst {
			fmt.Fprintf(stdout, "one-direction %v, bi-direction %v\n",
				m.Net.PairBandwidth(src, dst, false), m.Net.PairBandwidth(src, dst, true))
		}
	}
	if *doStream {
		ran = true
		f := memsys.ReadShare(*reads, *writes)
		fmt.Fprintf(stdout, "%.0f:%.0f mix (read share %.3f): %v system, %v per chip\n",
			*reads, *writes, f, m.Mem.SystemStream(f), m.Mem.StreamBandwidth(f, 1))
	}
	if *doRandom {
		ran = true
		fmt.Fprintf(stdout, "%d threads/core x %d lists: %v\n",
			*threads, *lists, m.RandomAccessBandwidth(*threads, *lists))
		if reg != nil {
			// The analytic answer above has no events to count; run the
			// DES cross-check so the stats show the queueing internals.
			bw := m.SimulateRandomAccessSharded(*threads, *lists, 200_000, *shards, reg, nil)
			fmt.Fprintf(stdout, "DES cross-check: %v\n", bw)
		}
	}
	if *doFMA {
		ran = true
		k := smt.FMAKernel{FMAs: *fmas, Threads: *threads}
		fmt.Fprintf(stdout, "%d FMAs x %d threads: %.1f%% of peak (%v/core, %d registers)\n",
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
		fmt.Fprintf(stdout, "OI %.3f: %v attainable (%s bound); write-only ceiling %v\n",
			*oi, main.Attainable(*oi), bound, wo.Attainable(*oi))
	}
	if *doChase {
		ran = true
		page := arch.Page64K
		if *huge {
			page = arch.Page16M
		}
		// One Figure 2 point: a warm lap, then up to 2M measured accesses.
		pt := micro.LatencyCurves(m, []arch.PageSize{page}, []units.Bytes{units.Bytes(*ws)}, 2_000_000, reg)[0][0]
		fmt.Fprintf(stdout, "chase over %d bytes (%v pages): %.2f ns/access\n", *ws, page, pt.AvgNs)
	}

	if !ran {
		fs.Usage()
		return 2
	}
	if reg != nil {
		if s := reg.Snapshot(); !s.Empty() {
			fmt.Fprintln(stdout, "\nsimulation counters:")
			obs.WriteMarkdown(stdout, s)
		}
	}
	return 0
}
