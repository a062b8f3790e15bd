package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	power8 "repro"
	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// workload is one named input set. setup builds a run's state. A run
// times batches of setupBatch set-ups, at least setupReps of them and
// for at least setupWindow, collecting the heap before each batch. A
// batch of cheap set-ups leaves well under 2 MiB of garbage, below the
// runtime's smallest heap goal, so no collection runs inside a batch and
// the set-ups do not raise the workload's peak RSS.
type workload struct {
	name       string
	why        string
	setupReps  int
	setupBatch int
	setup      func(seed uint64) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// measure runs units of work until d has passed.
	measure(d time.Duration) measurement
	// trace runs untraced reference units, then the same amount of work
	// with a span around every call into a layer.
	trace(t *tracer) (traceRun, error)
	close() error
}

// measurement is what an untraced run observed.
type measurement struct {
	latencies []time.Duration // one per unit of work
	// busy is the time the clients spent inside units: the sum of the
	// latencies for a sequential loop, the wall time of a closed loop.
	busy     time.Duration
	failures []error  // one per unit whose output was wrong
	notes    []string // further figures for the human-readable report
}

// traceRun is what a traced run observed.
type traceRun struct {
	ref    []time.Duration    // untraced reference units
	units  []int              // root span id of each traced unit
	allocs float64            // heap allocations per reference unit
	layer  map[string]float64 // per-layer metrics the workload observed
	// differences names how the traced units differ from the untraced
	// units of the end-to-end run.
	differences string
	attempted   int
	failures    []error
}

func (r *traceRun) check(err error) {
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, err)
	}
}

var allWorkloads = []workload{
	{
		name:       "suite-cold",
		why:        "The quick paper suite as a user reproduces it: 18 experiments, 2 workers, no cache. The walker and caches (figure2, figure8) and R-MAT generation (figure10) do most of the work.",
		setupReps:  11,
		setupBatch: 100,
		setup:      func(uint64) (instance, error) { return newSuiteCold(power8.Experiments()), nil },
	},
	{
		name:       "faults-des",
		why:        "Full-size degradation suite under a seeded random fault plan per pass: the sharded DES and fault derivation do most of the work; walker, host kernels and caches do none.",
		setupReps:  11,
		setupBatch: 100,
		setup:      func(seed uint64) (instance, error) { return newFaultsDES(seed), nil },
	},
	{
		name:       "suite-warm",
		why:        "The quick suite served by a fresh cache on a primed disk tier each pass, as a new p8repro -cachedir process: canon keys, memo disk reads, JSON decode, no model code.",
		setupReps:  2,
		setupBatch: 1,
		setup:      func(uint64) (instance, error) { return newSuiteWarm(power8.Experiments()) },
	},
	{
		name:       "p8d-mixed",
		why:        "In-process p8d, fsync-always journal, 2 closed-loop HTTP clients, one-worker jobs: 80% warm on 4 primed subsets, 20% cold degradation. Admission, journal, HTTP, memo.",
		setupReps:  5,
		setupBatch: 1,
		setup:      func(seed uint64) (instance, error) { return newP8dMixed(seed) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minUnits is the fewest units a sequential run measures: a median of
// three passes drops one outlier, where a median of two is their mean.
const minUnits = 3

// sequential runs unit(0), unit(1), ... until d has passed and at least
// minUnits have run.
func sequential(d time.Duration, unit func(i int) (time.Duration, error)) measurement {
	var m measurement
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < d; i++ {
		lat, err := unit(i)
		m.latencies = append(m.latencies, lat)
		m.busy += lat
		if err != nil {
			m.failures = append(m.failures, fmt.Errorf("unit %d: %w", i, err))
		}
	}
	return m
}

// faultPlan is the fault plan of faults-des pass i under seed.
func faultPlan(seed uint64, i int) *fault.Plan {
	return fault.Random(seed+uint64(i), arch.E870(), 4)
}

// checkReports fails on any FAILED report or failed check.
func checkReports(reps []*power8.Report) error {
	for _, r := range reps {
		if r.Failed() {
			return fmt.Errorf("%s FAILED: %s", r.ID, r.Err)
		}
		if !r.Passed() {
			for _, c := range r.Checks {
				if !c.Pass() {
					return fmt.Errorf("%s check failed: %v", r.ID, c)
				}
			}
		}
	}
	return nil
}

// suiteBench runs a suite through power8.RunSuite; suite-cold,
// faults-des and suite-warm differ only in the fields below.
type suiteBench struct {
	m     *power8.Machine
	suite []power8.Experiment
	quick bool
	// seed, when faults is set, picks the fault plan of each pass.
	seed   uint64
	faults bool
	// dir is suite-warm's primed disk tier, and primed the JSON of each
	// report of the cold pass that primed it.
	dir    string
	primed [][]byte
	// traceUnits is how many units a traced run measures, untraced and
	// traced each.
	traceUnits int
}

func newSuiteCold(suite []power8.Experiment) *suiteBench {
	return &suiteBench{m: power8.NewE870(), suite: suite, quick: true, traceUnits: 1}
}

func newFaultsDES(seed uint64) *suiteBench {
	return &suiteBench{m: power8.NewE870(), suite: power8.FaultExperiments(), seed: seed, faults: true, traceUnits: 1}
}

// newSuiteWarm primes a temporary disk tier with one cold pass.
func newSuiteWarm(suite []power8.Experiment) (*suiteBench, error) {
	dir, err := os.MkdirTemp("", "p8bench-warm-")
	if err != nil {
		return nil, err
	}
	s := &suiteBench{m: power8.NewE870(), suite: suite, quick: true, dir: dir, traceUnits: 200}
	sc, err := power8.NewSuiteCache(power8.CacheOptions{Dir: dir}, nil)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	reps := power8.RunSuite(suite, s.m, power8.RunOptions{Quick: true, Workers: workers, Cache: sc})
	if err := checkReports(reps); err != nil {
		return nil, errors.Join(fmt.Errorf("priming pass: %w", err), s.close())
	}
	for _, r := range reps {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.primed = append(s.primed, b)
	}
	return s, nil
}

func (s *suiteBench) close() error {
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// options are unit i's run options on n workers, without suite-warm's
// cache.
func (s *suiteBench) options(i, n int) power8.RunOptions {
	opts := power8.RunOptions{Quick: s.quick, Workers: n}
	if s.faults {
		opts.Faults = faultPlan(s.seed, i)
	}
	return opts
}

// observe points opts at reg: suite-warm gets a fresh cache on the
// primed directory whose memo counters land in reg; the uncached
// workloads get reg as their Stats registry (Stats would bypass a cache).
func (s *suiteBench) observe(opts *power8.RunOptions, reg *obs.Registry) error {
	if s.dir == "" {
		opts.Stats = reg
		return nil
	}
	sc, err := power8.NewSuiteCache(power8.CacheOptions{Dir: s.dir}, reg)
	opts.Cache = sc
	return err
}

// unit runs unit i on n workers, timed from creating suite-warm's fresh
// cache to the last report.
func (s *suiteBench) unit(i, n int) (time.Duration, error) {
	opts := s.options(i, n)
	start := time.Now()
	if err := s.observe(&opts, nil); err != nil {
		return 0, err
	}
	reps := power8.RunSuite(s.suite, s.m, opts)
	lat := time.Since(start)
	return lat, s.check(reps, 0)
}

// check verifies reports that start at suite index first.
func (s *suiteBench) check(reps []*power8.Report, first int) error {
	if err := checkReports(reps); err != nil {
		return err
	}
	for k, r := range reps {
		if s.primed == nil {
			break
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, s.primed[first+k]) {
			return fmt.Errorf("%s: warm report differs from the primed cold report", r.ID)
		}
	}
	return nil
}

func (s *suiteBench) measure(d time.Duration) measurement {
	return sequential(d, func(i int) (time.Duration, error) { return s.unit(i, workers) })
}

func (s *suiteBench) trace(t *tracer) (traceRun, error) {
	run := traceRun{differences: "each experiment is its own RunSuite call on one worker, " +
		"and reference units run on one worker too"}
	if s.dir == "" {
		run.differences += "; a Stats registry instruments the traced units, which on the paper suite turns on figure4's DES cross-check"
	}
	reg := obs.NewRegistry("trace")
	var before, after runtime.MemStats
	// Reference and traced units alternate, so both see the same host
	// spells and the same process warm-up.
	for i := 0; i < s.traceUnits; i++ {
		runtime.ReadMemStats(&before)
		lat, err := s.unit(i, 1)
		runtime.ReadMemStats(&after)
		run.check(err)
		run.ref = append(run.ref, lat)
		run.allocs += float64(after.Mallocs-before.Mallocs) / float64(s.traceUnits)

		if i == 0 {
			parallel.InstrumentShared(reg)
		}
		opts := s.options(i, 1)
		root := t.start(unitSpan, 0, i+1)
		if s.dir == "" {
			err = s.observe(&opts, reg)
		} else {
			t.do("power8.new_suite_cache", root, i+1, func() { err = s.observe(&opts, reg) })
		}
		if err != nil {
			return run, err
		}
		reps := make([][]*power8.Report, len(s.suite))
		for k, e := range s.suite {
			t.do("power8.exp."+e.ID, root, i+1, func() { reps[k] = power8.RunSuite([]power8.Experiment{e}, s.m, opts) })
		}
		t.end(root)
		run.units = append(run.units, root)
		for k := range reps { // checked outside the unit's span, as in an untraced unit
			run.check(s.check(reps[k], k))
		}
	}
	run.layer = obsLayer(viewOf(reg.Snapshot()))
	return run, nil
}
