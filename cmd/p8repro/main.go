// Command p8repro regenerates the paper's tables and figures.
//
// Usage:
//
//	p8repro                      # run every experiment, print reports
//	p8repro -exp table3          # run one experiment
//	p8repro -quick               # reduced working sets (seconds, not minutes)
//	p8repro -parallel 4          # run up to 4 experiments concurrently
//	p8repro -kernelworkers 8     # worker-team size inside each kernel
//	p8repro -grainfactor 16      # finer dynamic chunks (chunks per worker)
//	p8repro -markdown            # emit an EXPERIMENTS.md-style report
//	p8repro -list                # list experiment ids
//	p8repro -cpuprofile cpu.pb   # write a pprof CPU profile of the run
//	p8repro -stats               # append a counter appendix per experiment
//	p8repro -statsaddr :8123     # also serve live counters over HTTP
//	p8repro -faults worst-day    # degradation suite under a canned fault plan
//	p8repro -faults guard:0:2    # ... or an explicit event-grammar plan
//	p8repro -faultseed 7         # ... or a seeded random plan (reproducible)
//	p8repro -shards 8            # DES simulations on 8 parallel shards
//	p8repro -cache               # memoize reports in memory
//	p8repro -cachedir .p8cache   # ...and persist reports for warm re-runs
//
// -shards picks the shard count of the discrete-event simulations (the
// figure4 and deg-plan DES cross-checks): 0 (the default) auto-sizes to
// the host, 1 forces the sequential merged engine, and larger divisors
// of the socket count run that many parallel shard workers. Sharded and
// sequential runs are bit-identical by contract (see DESIGN.md "Sharded
// DES"); the flag only trades wall time. A count that does not divide
// the socket topology is rejected up front with exit status 2.
//
// -cache turns on content-addressed result memoization (see DESIGN.md
// "Result memoization"): completed reports are keyed by canonical
// fingerprints of everything that determines their content, so
// repeated runs inside one process reuse them.
// -cachedir (which implies -cache) additionally persists reports to a
// content-addressed directory, making a second p8repro invocation warm:
// it reruns nothing whose inputs are unchanged. FAILED reports are
// never cached, and -stats bypasses report reuse so counters always
// describe the execution that actually happened.
//
// -faults and -faultseed switch to the degradation suite: bandwidth-vs-
// fault sweeps and a healthy-vs-degraded comparison on a machine derived
// through the fault plan (see internal/fault for the grammar and the
// canned plan names, or -list). The paper suite is not run in that mode:
// a degraded machine fails the paper's healthy-system checks by
// construction.
//
// Experiments run concurrently (one goroutine each, bounded by
// -parallel, defaulting to the CPU count) but reports always print in
// the paper's order with the same content as a sequential run.
//
// With -stats each experiment runs inside its own registry scope (see
// internal/obs and the DESIGN.md "Observability" section) and its report
// ends with the scope's counters; the kernel runtime's shared-team
// counters are process-wide and print once at the end. -statsaddr
// serves the same registry live: GET / for JSON, /?format=markdown for
// the table form.
//
// Exit status is non-zero when any paper-vs-measured check fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/runreq"
)

// main delegates to run so that deferred profile writers execute before
// the process picks its exit status.
func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is the command: args are the program name and its flags (as in
// os.Args), reports go to stdout, diagnostics to stderr, and the return
// value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID      = fs.String("exp", "", "run a single experiment by id (e.g. table3, figure7)")
		quick      = fs.Bool("quick", false, "reduced working sets and scales")
		markdown   = fs.Bool("markdown", false, "emit a markdown report (EXPERIMENTS.md format)")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		ablations  = fs.Bool("ablations", false, "run the design-choice ablation studies instead")
		workers    = fs.Int("parallel", runtime.NumCPU(), "max experiments running concurrently (1 = sequential)")
		kernel     = runreq.KernelFlags(fs)
		timing     = fs.Bool("time", false, "report the suite's wall-clock time on stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file")
		stats      = fs.Bool("stats", false, "collect runtime counters and append a counter appendix per experiment")
		statsaddr  = fs.String("statsaddr", "", "serve the live counter registry over HTTP at this address (implies -stats)")
		faults     = fs.String("faults", "", "run the degradation suite under this fault plan (canned name or event grammar)")
		faultseed  = fs.Uint64("faultseed", 0, "run the degradation suite under a random fault plan derived from this seed (0 = off)")
		shards     = fs.Int("shards", 0, "DES shard count for the simulated experiments (0 = auto, must divide the socket count)")
		useCache   = fs.Bool("cache", false, "memoize reports in memory")
		cacheDir   = fs.String("cachedir", "", "persist cached reports to this directory for warm re-runs (implies -cache)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Reject bad flags up front with one friendly line and the usage
	// text rather than failing mid-run.
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "p8repro:", msg)
		fs.Usage()
		return 2
	}
	if *workers < 1 {
		return usage(fmt.Sprintf("-parallel must be at least 1, got %d", *workers))
	}
	if err := kernel(); err != nil {
		return usage(err.Error())
	}
	if *ablations && (*faults != "" || *faultseed != 0) {
		return usage("-ablations cannot be combined with -faults/-faultseed")
	}
	req := runreq.Request{Quick: *quick, Faults: *faults, FaultSeed: *faultseed, Shards: *shards}
	if *expID != "" {
		req.Experiments = []string{*expID}
	}
	resolved, err := runreq.Resolve(req, runreq.Machines())
	if err != nil {
		re := err.(*runreq.Error)
		msg := re.Render(func(field string) string { return "-" + field })
		if re.Kind == runreq.Invalid {
			return usage(msg)
		}
		fmt.Fprintln(stderr, "p8repro:", msg)
		if re.Kind == runreq.BadPlan {
			fmt.Fprintln(stderr, "p8repro: canned plans:", strings.Join(fault.CannedNames(), ", "))
		}
		return 2
	}

	var root *power8.StatsRegistry
	if *stats || *statsaddr != "" {
		root = power8.NewStatsRegistry("p8repro")
		parallel.InstrumentShared(root)
		if *statsaddr != "" {
			go func() {
				if err := http.ListenAndServe(*statsaddr, root); err != nil {
					fmt.Fprintln(stderr, "p8repro: stats server:", err)
				}
			}()
		}
	}
	// The cache is built after the registry so its hit/miss counters land
	// under the observed run's root. With -stats, report reuse is
	// bypassed by the harness.
	var cache *power8.SuiteCache
	if *useCache || *cacheDir != "" {
		if cache, err = power8.NewSuiteCache(power8.CacheOptions{Dir: *cacheDir}, root); err != nil {
			fmt.Fprintln(stderr, "p8repro:", err)
			return 2
		}
	}

	if *list {
		for _, e := range power8.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "\ndegradation suite (run with -faults or -faultseed):")
		for _, e := range power8.FaultExperiments() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "\ncanned fault plans:", strings.Join(fault.CannedNames(), ", "))
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "p8repro: ", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "p8repro: ", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "p8repro: ", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "p8repro: ", err)
			}
		}()
	}

	if *ablations {
		printAblations(stdout)
		return 0
	}

	// More workers than experiments would only idle, and one worker is
	// what lets -stats attribute allocations to each experiment.
	start := time.Now()
	reports := power8.RunSuite(resolved.Experiments, resolved.Machine, power8.RunOptions{
		Quick: *quick, Workers: min(*workers, len(resolved.Experiments)), Stats: root, Faults: resolved.Plan, Shards: *shards, Cache: cache,
	})
	if *timing {
		fmt.Fprintf(stderr, "p8repro: suite wall-clock %.2fs (parallel=%d)\n",
			time.Since(start).Seconds(), *workers)
	}

	failed := 0
	for _, rep := range reports {
		if *markdown {
			printMarkdown(stdout, rep)
		} else {
			printText(stdout, rep)
		}
		if !rep.Passed() {
			failed++
		}
	}
	if root != nil {
		printSharedStats(stdout, root, *markdown)
	}
	if !*markdown {
		fmt.Fprintf(stdout, "\n%d/%d experiments passed all checks\n", len(reports)-failed, len(reports))
	}
	if failed > 0 {
		return 1
	}
	if *statsaddr != "" {
		fmt.Fprintf(stderr, "p8repro: serving counters on %s until interrupted\n", *statsaddr)
		select {}
	}
	return 0
}

func printText(w io.Writer, rep *power8.Report) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", rep.ID, rep.Title)
	if rep.Failed() {
		fmt.Fprintln(w, "  status: FAILED (isolated by the harness)")
		for _, l := range strings.Split(strings.TrimRight(rep.Err, "\n"), "\n") {
			fmt.Fprintln(w, "    "+l)
		}
		return
	}
	for _, l := range rep.Lines {
		fmt.Fprintln(w, "  "+l)
	}
	if len(rep.Notes) > 0 {
		fmt.Fprintln(w, "  notes:")
		for _, n := range rep.Notes {
			fmt.Fprintln(w, "    - "+n)
		}
	}
	fmt.Fprintln(w, "  checks:")
	for _, c := range rep.Checks {
		fmt.Fprintln(w, "    "+c.String())
	}
	if rep.Stats != nil && !rep.Stats.Empty() {
		fmt.Fprintln(w, "  counters:")
		printSnapshotText(w, *rep.Stats, "")
	}
}

// printSnapshotText renders a snapshot tree as indented "path value"
// lines (the text-mode counter appendix). The root's own name is elided:
// it repeats the experiment id from the report header.
func printSnapshotText(w io.Writer, s power8.StatsSnapshot, prefix string) {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "    %-44s %12d\n", prefix+c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "    %-44s %12d  (gauge)\n", prefix+g.Name, g.Value)
	}
	for _, d := range s.Distributions {
		fmt.Fprintf(w, "    %-44s n=%d mean=%.0f p50=%d p99=%d max=%d\n",
			prefix+d.Name, d.Count, d.Mean, d.P50, d.P99, d.Max)
	}
	for _, child := range s.Children {
		printSnapshotText(w, child, prefix+child.Name+"/")
	}
}

// printSharedStats renders the process-wide scopes of an observed run —
// the kernel runtime's shared worker teams and the result caches, which
// outlive any one experiment and therefore cannot appear in
// per-experiment appendices.
func printSharedStats(w io.Writer, root *power8.StatsRegistry, markdown bool) {
	scopes := []string{"parallel", "memo"}
	for _, name := range scopes {
		s := root.Child(name).Snapshot()
		if s.Empty() {
			continue
		}
		if markdown {
			fmt.Fprintf(w, "\n## %s counters (process-wide)\n\n", name)
			obs.WriteMarkdown(w, s)
			continue
		}
		fmt.Fprintf(w, "\n=== %s counters (process-wide) ===\n", name)
		printSnapshotText(w, s, name+"/")
	}
}

func printMarkdown(w io.Writer, rep *power8.Report) {
	fmt.Fprintf(w, "\n## %s — %s\n\n", rep.ID, rep.Title)
	if rep.Failed() {
		fmt.Fprintln(w, "**FAILED** — the harness isolated this experiment:")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "```")
		fmt.Fprintln(w, strings.TrimRight(rep.Err, "\n"))
		fmt.Fprintln(w, "```")
		return
	}
	fmt.Fprintln(w, "```")
	for _, l := range rep.Lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w, "```")
	if len(rep.Notes) > 0 {
		for _, n := range rep.Notes {
			fmt.Fprintln(w, "- "+n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "| check | result |")
	fmt.Fprintln(w, "|---|---|")
	for _, c := range rep.Checks {
		status := "pass"
		if !c.Pass() {
			status = "**FAIL**"
		}
		name := strings.ReplaceAll(c.String(), "|", "/")
		fmt.Fprintf(w, "| `%s` | %s |\n", name, status)
	}
	if rep.Stats != nil && !rep.Stats.Empty() {
		fmt.Fprint(w, "\n<details><summary>Counter appendix</summary>\n\n")
		obs.WriteMarkdown(w, *rep.Stats)
		fmt.Fprintln(w, "\n</details>")
	}
}
