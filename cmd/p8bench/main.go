// Command p8bench is the repository's benchmark: one command, four
// workloads, one result schema, and a traced cost map per layer. It is a
// module of its own (this directory's go.mod points back at the
// repository), so it builds against whatever commit it sits in.
//
// # Workloads
//
// Each workload is one set of inputs; the names are fixed.
//
//   - suite-cold: passes of the 18-experiment quick paper suite through
//     power8.RunSuite with 2 workers and no cache, on NewE870. This is
//     what a user runs to reproduce the paper. The walker and caches
//     (figure2, figure8) and R-MAT generation (figure10) do most of the
//     work; the DES, memo, journal and HTTP layers do none. The seed does
//     not shape it: the paper suite is the input.
//   - faults-des: passes of the full-size degradation suite (deg-*),
//     2 workers, automatic shards, no cache; pass i runs under
//     fault.Random(seed+i, E870, 4). The sharded DES and fault derivation
//     do most of the work; the walker, host kernels and caches do none,
//     so a change to those layers should not move it.
//   - suite-warm: set-up primes a temporary disk cache with one cold
//     quick pass; each measured pass then runs the quick suite through a
//     fresh SuiteCache on that directory, as a new p8repro -quick
//     -cachedir process does. This is the disk tier's read path: canon
//     request keys, memo disk reads and validation, JSON decode. No model
//     code runs; it is the mirror image of suite-cold.
//   - p8d-mixed: an in-process p8d (service.New with 2 job workers, an
//     fsync-always journal and a memory+disk cache in a temporary
//     directory) on 127.0.0.1. Two HTTP clients, one connection each,
//     run a closed loop: submit, long-poll ?wait=60s, GET /reports. In
//     every block of five jobs, four are warm (one each of four quick
//     paper subsets primed during set-up) and one is cold (the quick
//     degradation suite under a fresh seeded faultseed), in seeded order.
//     Each job asks for one worker and one DES shard. It is the only
//     workload that exercises admission, journal fsyncs, HTTP and the
//     memo memory tier, with writes beside reads.
//
// Load comes from this one process: at most 2 RunSuite workers, 2 job
// workers, 2 clients and 2 connections. GOMAXPROCS is left alone; the
// report prints it and the CPU count.
//
// # End-to-end metrics
//
// Every untraced run reports these four, in host time, on every
// workload. A unit of work is a suite pass, or one job on p8d-mixed.
// A run measures for -seconds; the suite workloads run at least three
// passes.
//
//	metric       unit  better  bound  what
//	setup_s      s     lower   25%    median time per set-up, over batches spanning 3 s or more
//	op_p50_ms    ms    lower   25%    median latency of a unit of work
//	ops_per_s    1/s   higher  25%    units completed per second of client time
//	peak_rss_mb  MiB   lower   20%    the process's VmHWM
//
// The report beside them states each sample count, the failures against
// the units attempted, and the highest tail percentile the samples
// allow: p90 or above, printed only when at least 10 samples lie beyond
// it. On p8d-mixed it gives the median and tail of warm and of cold jobs
// apart.
//
// Every unit's output is checked. Every report must pass its checks;
// each suite-warm report must marshal byte-identically to the primed cold
// report; each warm p8d-mixed /reports body must equal the first body
// seen for that subset, and cold bodies must decode to passing reports;
// a non-2xx response is a failure. Any failure makes the run exit 1.
//
// # Per-layer metrics
//
// A traced run (-trace 1) first times untraced reference units on one
// worker, then the same work again with a span, kept in memory, around
// every call the benchmark makes into a layer's public API: each
// experiment as its own RunSuite call with Workers=1 and a Stats
// registry, or each p8d route call. It then times probes of single
// layers on fixed inputs: the walker and cache on figure2's largest
// chase, R-MAT degrees, the Jaccard projection at scales 17, 19 and 21,
// Hartree-Fock, SpMV, all-pairs Jaccard, the sharded DES, fault
// derivation, machine fingerprints, report loads and journal appends
// with and without fsync. It prints every per-layer metric with the
// end-to-end metric it should move, an attribution table by self time,
// power8.trace_overhead_pct against the untraced reference, and writes
// the spans to -spans. Counts a workload never produces read 0.
//
// # Running
//
// The benchmark builds itself into .bench_build and runs from the root
// of a checkout:
//
//	bash cmd/p8bench/run.sh -workload suite-cold -seed 1 -seconds 20 -trace 0
//	bash cmd/p8bench/run.sh -workload p8d-mixed -trace 1 -spans spans.json
//	bash cmd/p8bench/run.sh -seed 1 -runs 3 -out head.json
//	bash cmd/p8bench/run.sh -compare base.json head.json
//
// Without -workload it runs all four, each in its own child process so
// peak RSS is per workload, prints a summary, writes BENCHMARK.json in
// the working directory and, with -out, every run's result for -compare;
// -spec writes only the definition. -compare applies BENCHMARK.json's
// bounds per metric and per workload and prints each ratio with its
// base; where the spread between runs is wider than the bound it prints
// "unresolved", not "unchanged", and a metric worse by more than its
// bound makes it exit 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricValue is one metric in a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p8bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (empty: all four, each in a child process)")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", runSeconds, "how long an untraced run measures")
		traced  = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		spans   = fs.String("spans", "", "span file of a traced run (default: p8bench-spans-<workload>.json in the temp dir)")
		runs    = fs.Int("runs", 1, "runs per workload without -workload; run r uses seed+r")
		out     = fs.String("out", "", "without -workload, write every run's result here for -compare")
		specOut = fs.String("spec", "", "write the benchmark definition (BENCHMARK.json) to this file and exit")
		compare = fs.Bool("compare", false, "compare two -out files: p8bench -compare base.json head.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "p8bench: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if *specOut != "" {
		if err := writeSpec(*specOut); err != nil {
			fmt.Fprintln(stderr, "p8bench:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two result files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *seconds < 1:
		return usage("-seconds must be at least 1, got %d", *seconds)
	case *traced != 0 && *traced != 1:
		return usage("-trace must be 0 or 1, got %d", *traced)
	case *runs < 1:
		return usage("-runs must be at least 1, got %d", *runs)
	}
	if *name == "" {
		return runAll(*seed, *seconds, *traced, *runs, *out, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return usage("unknown workload %q", *name)
	}
	fmt.Fprintf(stdout, "p8bench: workload %s, seed %d, nproc %d, GOMAXPROCS %d\n", w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var res result
	var err error
	if *traced == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(os.TempDir(), "p8bench-spans-"+w.name+".json")
		}
		res, err = traceWorkload(w, *seed, path, stdout)
	} else {
		res, err = measureWorkload(w, *seed, time.Duration(*seconds)*time.Second, setupWindow, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupWindow is the least time a run spends timing set-ups. A set-up
// of a few microseconds swings by half between the host's busy and quiet
// spells, which last seconds; batches spread over a few seconds average
// over them.
const setupWindow = 3 * time.Second

// measureWorkload is an untraced run: set up in batches of setupBatch
// until setupReps batches have run and window has passed, measure
// for d with the last instance, and report the end-to-end metrics.
// setup_s is the median batch's time per set-up.
func measureWorkload(w workload, seed uint64, d, window time.Duration, out io.Writer) (result, error) {
	var setups []float64
	var inst instance
	closeInst := func() error {
		if inst == nil {
			return nil
		}
		return inst.close()
	}
	first := time.Now()
	for b := 0; b < w.setupReps || time.Since(first) < window; b++ {
		if err := closeInst(); err != nil {
			return result{}, err
		}
		runtime.GC()
		start := time.Now()
		for i := 0; i < w.setupBatch; i++ {
			if i > 0 {
				if err := closeInst(); err != nil {
					return result{}, err
				}
			}
			var err error
			if inst, err = w.setup(seed); err != nil {
				return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds()/float64(w.setupBatch))
	}
	m := inst.measure(d)
	if err := inst.close(); err != nil {
		return result{}, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	lat := durationsMs(m.latencies)
	n := len(lat)
	res := result{
		Correct:   len(m.failures) == 0,
		Attempted: n,
		Failed:    len(m.failures),
		Metrics: map[string]metricValue{
			"setup_s":     {median(setups), "s"},
			"op_p50_ms":   {median(lat), "ms"},
			"ops_per_s":   {float64(n) / m.busy.Seconds(), "1/s"},
			"peak_rss_mb": {rss, "MiB"},
		},
	}
	fmt.Fprintf(out, "  %-12s %14.6g s    median of %d batches of %d set-ups\n", "setup_s", median(setups), len(setups), w.setupBatch)
	fmt.Fprintf(out, "  %-12s %14.6g ms   median of %d units\n", "op_p50_ms", median(lat), n)
	fmt.Fprintf(out, "  %-12s %14.6g 1/s  %d units in %.3f s of client time\n", "ops_per_s", res.Metrics["ops_per_s"].Value, n, m.busy.Seconds())
	fmt.Fprintf(out, "  %-12s %14.6g MiB  VmHWM\n", "peak_rss_mb", rss)
	fmt.Fprintf(out, "  %-12s %14s      failed / attempted\n", "fail_ratio", fmt.Sprintf("%d/%d", res.Failed, n))
	fmt.Fprintln(out, "  "+tailNote("op", lat))
	for _, note := range m.notes {
		fmt.Fprintln(out, "  "+note)
	}
	printFailures(out, m.failures)
	return res, nil
}

// printFailures prints the first few failures.
func printFailures(out io.Writer, failures []error) {
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(failures)-i)
			return
		}
		fmt.Fprintln(out, "  FAILED:", f)
	}
}

// traceWorkload is a traced run: reference and traced units, then the
// layer probes; it reports every per-layer metric.
func traceWorkload(w workload, seed uint64, spansPath string, out io.Writer) (result, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	t := newTracer()
	run, err := inst.trace(t)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	probes, err := runProbes(t, seed)
	if err != nil {
		return result{}, err
	}

	layer := map[string]float64{}
	for _, src := range []map[string]float64{run.layer, probes} {
		for k, v := range src {
			layer[k] = v
		}
	}
	var ref, traced float64
	for _, d := range run.ref {
		ref += ms(d) / float64(len(run.ref))
	}
	for _, id := range run.units {
		traced += ms(t.span(id).dur()) / float64(len(run.units))
	}
	expSelf := t.selfByName(func(s span) bool { return strings.HasPrefix(s.Name, "power8.exp.") })
	var expSum float64
	for _, id := range experimentIDs {
		v := ms(expSelf["power8.exp."+id]) / float64(len(run.units))
		layer[expMetric(id)] = v
		expSum += v
	}
	layer["power8.pass_ref_ms"] = ref
	layer["power8.allocs_per_pass"] = run.allocs
	layer["power8.exp_sum_vs_pass_pct"] = 100 * expSum / ref
	layer["power8.trace_overhead_pct"] = 100 * (traced - ref) / ref

	res := result{
		Correct:   len(run.failures) == 0,
		Attempted: run.attempted,
		Failed:    len(run.failures),
		Metrics:   map[string]metricValue{},
	}
	for _, g := range layerGroups() {
		fmt.Fprintf(out, "moves %s:\n", g.moves)
		for _, m := range g.metrics {
			res.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
			fmt.Fprintf(out, "  %-40s %16.6g %s\n", m.Name, layer[m.Name], m.Unit)
		}
	}
	for k := range layer {
		if _, ok := res.Metrics[k]; !ok {
			return result{}, fmt.Errorf("metric %s is missing from the benchmark definition", k)
		}
	}
	printAttribution(out, w.name, run.differences, t, len(run.units), ref, layer)
	printFailures(out, run.failures)
	if err := t.write(spansPath, w.name, seed); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(t.spans), spansPath)
	return res, nil
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed       uint64              `json:"seed"`
	Seconds    int                 `json:"seconds"`
	Trace      int                 `json:"trace"`
	NumCPU     int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Runs       map[string][]result `json:"runs"`
}

// runAll runs every workload runs times, each run in a child process.
// It writes every run's result to outPath, when set, and the benchmark
// definition to BENCHMARK.json in the working directory.
func runAll(seed uint64, seconds, traced, runs int, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	rf := resultsFile{Seed: seed, Seconds: seconds, Trace: traced, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Runs: map[string][]result{}}
	fmt.Fprintf(stdout, "p8bench: %d workloads x %d run(s), nproc %d, GOMAXPROCS %d\n", len(allWorkloads), runs, rf.NumCPU, rf.GOMAXPROCS)
	code := 0
	for _, w := range allWorkloads {
		for r := 0; r < runs; r++ {
			res, err := runChild(self, w.name, seed+uint64(r), seconds, traced, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "p8bench: %s run %d: %v\n", w.name, r, err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			rf.Runs[w.name] = append(rf.Runs[w.name], res)
		}
	}
	if traced == 0 {
		fmt.Fprintln(stdout, "\nsummary (median over runs):")
		for _, w := range allWorkloads {
			rs := rf.Runs[w.name]
			failed, attempted := 0, 0
			for _, r := range rs {
				failed += r.Failed
				attempted += r.Attempted
			}
			fmt.Fprintf(stdout, "%s  (%d runs, fail_ratio %d/%d)\n", w.name, len(rs), failed, attempted)
			for _, m := range endToEnd {
				vs := values(rs, m.Name)
				fmt.Fprintf(stdout, "  %-12s %14.6g %-4s spread %s of %d runs\n", m.Name, median(vs), m.Unit, pct(spread(vs)), len(vs))
			}
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, rf); err != nil {
			fmt.Fprintln(stderr, "p8bench:", err)
			return 1
		}
	}
	if err := writeSpec("BENCHMARK.json"); err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	return code
}

// pct renders a share as a percentage, or n/a when it is unknown.
func pct(x float64) string {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// runChild runs one workload in a child process, echoes its report and
// parses its result line.
func runChild(self, name string, seed uint64, seconds, traced int, stdout, stderr io.Writer) (result, error) {
	var buf bytes.Buffer
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	report, last := "", strings.TrimSpace(buf.String())
	if i := strings.LastIndexByte(last, '\n'); i >= 0 {
		report, last = last[:i+1], last[i+1:]
	}
	fmt.Fprint(stdout, report)
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("result line: %w", err), runErr)
	}
	if runErr != nil && res.Correct {
		return result{}, runErr
	}
	return res, nil
}

func values(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
