package power8

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// FaultPlan is a deterministic RAS degradation plan; see internal/fault
// for the event taxonomy, the Parse grammar and the canned plans.
type FaultPlan = fault.Plan

// FaultExperiments returns the degradation suite: bandwidth-vs-fault
// sweeps and a healthy-vs-degraded comparison driven by a FaultPlan.
// It is separate from Experiments() because a degraded machine fails
// the paper suite's healthy-system checks by construction.
func FaultExperiments() []Experiment { return experiments.DegradationSuite() }

// RunOptions configures a hardened suite run. The zero value runs the
// suite on all CPUs with no instrumentation and no cache.
type RunOptions struct {
	// Quick shrinks working sets and scales for fast runs.
	Quick bool
	// Workers caps the run's goroutines; <= 0 means runtime.NumCPU().
	Workers int
	// Stats, when non-nil, instruments the run: every experiment gets a
	// child scope keyed by its id, and the harness's own counters
	// (panics recovered) land under a "harness" scope.
	Stats *StatsRegistry
	// Faults selects the degradation plan for the fault-suite
	// experiments (nil falls back to their canned default). The paper
	// suite ignores it.
	Faults *FaultPlan
	// Shards is the DES shard count for the Figure-4-class simulations:
	// 0 (the default) auto-picks from GOMAXPROCS, 1 forces the
	// sequential merged engine, and larger divisors of the socket count
	// run that many parallel shard workers. Sharding is a wall-time
	// knob only — every legal value yields bit-identical reports.
	Shards int
	// Cache, when non-nil, memoizes the run: completed reports are
	// served from (and stored into) the content-addressed result cache.
	// FAILED reports are never stored. The cache is bypassed when Stats
	// is non-nil — counters describe the execution that actually
	// happened. Like Shards, the cache is a wall-time knob only: warm
	// and cold runs return the same bits.
	Cache *SuiteCache
	// OnReport, when non-nil, is called once per experiment as its
	// report becomes final (after the cache layer),
	// from the worker goroutine that produced it and in completion
	// order — the returned slice is still in suite order. index is the
	// experiment's position in the suite; fromCache reports whether the
	// result was served from the suite cache rather than executed. p8d
	// uses it to stream per-experiment progress and to attribute
	// warm-vs-cold provenance; the callback must be safe for concurrent
	// calls when Workers > 1.
	OnReport func(index int, rep *Report, fromCache bool)
}

// RunSuite executes a set of experiments against one machine under the
// hardened harness contract: every experiment runs isolated (a panic
// becomes that experiment's failed report, the rest of the suite is
// unaffected). Reports come back in suite order regardless of
// completion order, one per experiment, always. The Machine is
// read-only after construction, so one machine is safely shared by
// every worker and a parallel run produces the same reports as a
// sequential one.
func RunSuite(suite []Experiment, m *Machine, opts RunOptions) []*Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// runtime.MemStats is process-global: allocation deltas are only
	// attributable on sequential runs.
	recordAllocs := workers == 1
	h := opts.Stats.Child("harness")
	return parallel.Map(workers, suite, func(i int, e Experiment) *Report {
		rep, fromCache := runHardened(e, m, opts, h, recordAllocs)
		if opts.OnReport != nil {
			opts.OnReport(i, rep, fromCache)
		}
		return rep
	})
}

// runHardened serves one experiment through the result cache when one
// is configured (and the run is uninstrumented), running it on a miss;
// without a cache it just runs it. The second return reports whether
// the cache supplied the report.
func runHardened(e Experiment, m *Machine, opts RunOptions, h *obs.Registry, recordAllocs bool) (*Report, bool) {
	run := func() *Report { return runAttempt(e, m, opts, h, recordAllocs) }
	if opts.Cache == nil || opts.Stats != nil {
		return run(), false
	}
	return opts.Cache.lookupOrRun(e, m, opts, run)
}

// runAttempt executes one experiment isolated, in its own registry
// scope.
func runAttempt(e Experiment, m *Machine, opts RunOptions, h *obs.Registry, recordAllocs bool) *Report {
	scope := opts.Stats.Child(e.ID) // nil Stats -> nil scope: uninstrumented
	var m0 runtime.MemStats
	if opts.Stats != nil && recordAllocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	rep := safeRun(e, &experiments.Context{
		Machine: m,
		Quick:   opts.Quick,
		Obs:     scope,
		Faults:  opts.Faults,
		Shards:  opts.Shards,
	}, h)
	if opts.Stats != nil {
		hs := scope.Child("harness")
		hs.Distribution("wall_ns").Observe(time.Since(start).Nanoseconds())
		if recordAllocs {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			hs.Gauge("allocs").Set(int64(m1.Mallocs - m0.Mallocs))
		}
		s := scope.Snapshot()
		rep.Stats = &s
	}
	return rep
}

// safeRun executes one experiment, converting panics into
// failed reports so one broken experiment cannot take down the suite:
// the report's Err keeps the panic's value and stack. This wrapper
// is the only place in the repository allowed to call recover — the
// p8lint isolation analyzer enforces that panics elsewhere stay fatal
// instead of being silently swallowed.
//
//p8:isolation
func safeRun(e Experiment, ctx *experiments.Context, h *obs.Registry) (rep *Report) {
	defer func() {
		cause := recover()
		if cause == nil {
			return
		}
		h.Counter("panics_recovered").Inc()
		rep = &Report{ID: e.ID, Title: e.Title, Err: fmt.Sprintf("panic: %v\n%s", cause, debug.Stack())}
	}()
	return e.Run(ctx)
}
