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
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// main delegates to run so that deferred profile writers execute before
// the process picks its exit status.
func main() { os.Exit(run()) }

func run() int {
	var (
		expID      = flag.String("exp", "", "run a single experiment by id (e.g. table3, figure7)")
		quick      = flag.Bool("quick", false, "reduced working sets and scales")
		markdown   = flag.Bool("markdown", false, "emit a markdown report (EXPERIMENTS.md format)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		ablations  = flag.Bool("ablations", false, "run the design-choice ablation studies instead")
		workers    = flag.Int("parallel", runtime.NumCPU(), "max experiments running concurrently (1 = sequential)")
		kworkers   = flag.Int("kernelworkers", 0, "worker-team size for the host kernels (0 = GOMAXPROCS)")
		grainf     = flag.Int("grainfactor", 0, "dynamic-schedule chunks per worker (0 = default)")
		timing     = flag.Bool("time", false, "report the suite's wall-clock time on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
		stats      = flag.Bool("stats", false, "collect runtime counters and append a counter appendix per experiment")
		statsaddr  = flag.String("statsaddr", "", "serve the live counter registry over HTTP at this address (implies -stats)")
		faults     = flag.String("faults", "", "run the degradation suite under this fault plan (canned name or event grammar)")
		faultseed  = flag.Uint64("faultseed", 0, "run the degradation suite under a random fault plan derived from this seed (0 = off)")
		shards     = flag.Int("shards", 0, "DES shard count for the simulated experiments (0 = auto, must divide the socket count)")
		useCache   = flag.Bool("cache", false, "memoize reports in memory")
		cacheDir   = flag.String("cachedir", "", "persist cached reports to this directory for warm re-runs (implies -cache)")
	)
	flag.Parse()

	// Validate flag combinations up front with a friendly message and the
	// usage text rather than failing mid-run.
	if err := validateFlags(*workers, *kworkers, *grainf, *shards, *faults, *faultseed, *ablations); err != nil {
		fmt.Fprintln(os.Stderr, "p8repro:", err)
		flag.Usage()
		return 2
	}
	faultMode := *faults != "" || *faultseed != 0
	var plan *power8.FaultPlan
	if faultMode {
		var err error
		if plan, err = resolvePlan(*faults, *faultseed); err != nil {
			fmt.Fprintln(os.Stderr, "p8repro:", err)
			fmt.Fprintln(os.Stderr, "p8repro: canned plans:", strings.Join(fault.CannedNames(), ", "))
			return 2
		}
	}

	parallel.SetDefaultWorkers(*kworkers)
	parallel.SetGrainFactor(*grainf)

	var root *power8.StatsRegistry
	if *stats || *statsaddr != "" {
		root = power8.NewStatsRegistry("p8repro")
		parallel.InstrumentShared(root)
		if *statsaddr != "" {
			go func() {
				if err := http.ListenAndServe(*statsaddr, root); err != nil {
					fmt.Fprintln(os.Stderr, "p8repro: stats server:", err)
				}
			}()
		}
	}
	// The cache is built after the registry so its hit/miss counters land
	// under the observed run's root. With -stats, report reuse is
	// bypassed by the harness.
	var cache *power8.SuiteCache
	if *useCache || *cacheDir != "" {
		var err error
		if cache, err = power8.NewSuiteCache(power8.CacheOptions{Dir: *cacheDir}, root); err != nil {
			fmt.Fprintln(os.Stderr, "p8repro:", err)
			return 2
		}
	}

	if *list {
		for _, e := range power8.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Println("\ndegradation suite (run with -faults or -faultseed):")
		for _, e := range power8.FaultExperiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		fmt.Println("\ncanned fault plans:", strings.Join(fault.CannedNames(), ", "))
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p8repro: ", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "p8repro: ", err)
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
				fmt.Fprintln(os.Stderr, "p8repro: ", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "p8repro: ", err)
			}
		}()
	}

	if *ablations {
		printAblations()
		return 0
	}

	m := power8.NewE870()
	start := time.Now()
	var reports []*power8.Report
	switch {
	case faultMode:
		suite := power8.FaultExperiments()
		if *expID != "" {
			if suite = filterSuite(suite, *expID); suite == nil {
				fmt.Fprintf(os.Stderr, "p8repro: unknown degradation experiment %q\n", *expID)
				return 2
			}
		}
		reports = power8.RunSuite(suite, m, power8.RunOptions{
			Quick: *quick, Workers: *workers, Stats: root, Faults: plan, Shards: *shards, Cache: cache,
		})
	case *expID != "":
		suite := filterSuite(power8.Experiments(), *expID)
		if suite == nil {
			fmt.Fprintf(os.Stderr, "p8repro: unknown experiment %q\n", *expID)
			return 2
		}
		reports = power8.RunSuite(suite, m, power8.RunOptions{
			Quick: *quick, Workers: 1, Stats: root, Shards: *shards, Cache: cache,
		})
	default:
		reports = power8.RunSuite(power8.Experiments(), m, power8.RunOptions{
			Quick: *quick, Workers: *workers, Stats: root, Shards: *shards, Cache: cache,
		})
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "p8repro: suite wall-clock %.2fs (parallel=%d)\n",
			time.Since(start).Seconds(), *workers)
	}

	failed := 0
	for _, rep := range reports {
		if *markdown {
			printMarkdown(rep)
		} else {
			printText(rep)
		}
		if !rep.Passed() {
			failed++
		}
	}
	if root != nil {
		printSharedStats(root, *markdown)
	}
	if !*markdown {
		fmt.Printf("\n%d/%d experiments passed all checks\n", len(reports)-failed, len(reports))
	}
	if failed > 0 {
		return 1
	}
	if *statsaddr != "" {
		fmt.Fprintf(os.Stderr, "p8repro: serving counters on %s until interrupted\n", *statsaddr)
		select {}
	}
	return 0
}

// validateFlags rejects nonsensical flag values and combinations before
// any work starts, so the user gets one friendly line plus the usage
// text (exit 2) instead of a mid-run panic.
func validateFlags(workers, kworkers, grainf, shards int, faults string, faultseed uint64, ablations bool) error {
	if workers < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", workers)
	}
	if kworkers < 0 {
		return fmt.Errorf("-kernelworkers must be >= 0, got %d", kworkers)
	}
	if grainf < 0 {
		return fmt.Errorf("-grainfactor must be >= 0, got %d", grainf)
	}
	if spec := power8.E870Spec(); shards != 0 && !machine.ShardCountValid(spec, shards) {
		return fmt.Errorf("-shards %d does not divide the %d-socket topology (use 0 for auto or a divisor of %d)",
			shards, spec.Topology.Chips, spec.Topology.Chips)
	}
	if faults != "" && faultseed != 0 {
		return fmt.Errorf("-faults and -faultseed are mutually exclusive; pick one plan source")
	}
	if ablations && (faults != "" || faultseed != 0) {
		return fmt.Errorf("-ablations cannot be combined with -faults/-faultseed")
	}
	return nil
}

// resolvePlan turns the fault flags into a validated plan against the
// E870 spec the suite runs on.
func resolvePlan(faults string, faultseed uint64) (*power8.FaultPlan, error) {
	spec := power8.E870Spec()
	if faultseed != 0 {
		return fault.Random(faultseed, spec, 4), nil
	}
	plan, err := fault.Parse(faults)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(spec); err != nil {
		return nil, err
	}
	return plan, nil
}

// filterSuite narrows a suite to one experiment id; nil means not found.
func filterSuite(suite []power8.Experiment, id string) []power8.Experiment {
	for _, e := range suite {
		if e.ID == id {
			return []power8.Experiment{e}
		}
	}
	return nil
}

func printText(rep *power8.Report) {
	fmt.Printf("\n=== %s — %s ===\n", rep.ID, rep.Title)
	if rep.Failed() {
		fmt.Println("  status: FAILED (isolated by the harness)")
		for _, l := range strings.Split(strings.TrimRight(rep.Err, "\n"), "\n") {
			fmt.Println("    " + l)
		}
		return
	}
	for _, l := range rep.Lines {
		fmt.Println("  " + l)
	}
	if len(rep.Notes) > 0 {
		fmt.Println("  notes:")
		for _, n := range rep.Notes {
			fmt.Println("    - " + n)
		}
	}
	fmt.Println("  checks:")
	for _, c := range rep.Checks {
		fmt.Println("    " + c.String())
	}
	if rep.Stats != nil && !rep.Stats.Empty() {
		fmt.Println("  counters:")
		printSnapshotText(*rep.Stats, "")
	}
}

// printSnapshotText renders a snapshot tree as indented "path value"
// lines (the text-mode counter appendix). The root's own name is elided:
// it repeats the experiment id from the report header.
func printSnapshotText(s power8.StatsSnapshot, prefix string) {
	for _, c := range s.Counters {
		fmt.Printf("    %-44s %12d\n", prefix+c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Printf("    %-44s %12d  (gauge)\n", prefix+g.Name, g.Value)
	}
	for _, d := range s.Distributions {
		fmt.Printf("    %-44s n=%d mean=%.0f p50=%d p99=%d max=%d\n",
			prefix+d.Name, d.Count, d.Mean, d.P50, d.P99, d.Max)
	}
	for _, child := range s.Children {
		printSnapshotText(child, prefix+child.Name+"/")
	}
}

// printSharedStats renders the process-wide scopes of an observed run —
// the kernel runtime's shared worker teams and the result caches, which
// outlive any one experiment and therefore cannot appear in
// per-experiment appendices.
func printSharedStats(root *power8.StatsRegistry, markdown bool) {
	scopes := []string{"parallel", "memo"}
	for _, name := range scopes {
		s := root.Child(name).Snapshot()
		if s.Empty() {
			continue
		}
		if markdown {
			fmt.Printf("\n## %s counters (process-wide)\n\n", name)
			obs.WriteMarkdown(os.Stdout, s)
			continue
		}
		fmt.Printf("\n=== %s counters (process-wide) ===\n", name)
		printSnapshotText(s, name+"/")
	}
}

func printMarkdown(rep *power8.Report) {
	fmt.Printf("\n## %s — %s\n\n", rep.ID, rep.Title)
	if rep.Failed() {
		fmt.Println("**FAILED** — the harness isolated this experiment:")
		fmt.Println()
		fmt.Println("```")
		fmt.Println(strings.TrimRight(rep.Err, "\n"))
		fmt.Println("```")
		return
	}
	fmt.Println("```")
	for _, l := range rep.Lines {
		fmt.Println(l)
	}
	fmt.Println("```")
	if len(rep.Notes) > 0 {
		for _, n := range rep.Notes {
			fmt.Println("- " + n)
		}
		fmt.Println()
	}
	fmt.Println("| check | result |")
	fmt.Println("|---|---|")
	for _, c := range rep.Checks {
		status := "pass"
		if !c.Pass() {
			status = "**FAIL**"
		}
		name := strings.ReplaceAll(c.String(), "|", "/")
		fmt.Printf("| `%s` | %s |\n", name, status)
	}
	if rep.Stats != nil && !rep.Stats.Empty() {
		fmt.Print("\n<details><summary>Counter appendix</summary>\n\n")
		obs.WriteMarkdown(os.Stdout, *rep.Stats)
		fmt.Println("\n</details>")
	}
}
