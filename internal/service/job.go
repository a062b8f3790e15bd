package service

import (
	"fmt"
	"sync"
	"time"

	power8 "repro"
	"repro/internal/arch"
	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Request is the body of POST /v1/jobs: everything a client may vary
// about a run. The zero value is a valid request — the full paper suite
// on the E870 at full size. See API.md for the field-by-field reference
// and the cache-key contract (which fields reach the canonical job
// fingerprint and which are deliberately excluded).
type Request struct {
	// Spec selects the machine: "e870" (the paper's evaluation system,
	// the default) or "max-smp" (the 16-socket Section II-B maximum).
	Spec string `json:"spec,omitempty"`
	// Suite selects the experiment registry: "paper" (tables I-VI and
	// figures 1-12, the default) or "degradation" (the deg-* fault
	// sweeps). Setting Faults or FaultSeed implies "degradation".
	Suite string `json:"suite,omitempty"`
	// Experiments narrows the suite to these ids, run in the order
	// given; empty means the whole suite in its canonical order.
	Experiments []string `json:"experiments,omitempty"`
	// Quick shrinks working sets and scales for fast runs.
	Quick bool `json:"quick,omitempty"`
	// Faults is a degradation plan — a canned name or the event
	// grammar (see internal/fault) — validated against Spec's topology
	// at submit time.
	Faults string `json:"faults,omitempty"`
	// FaultSeed derives a reproducible random plan instead; mutually
	// exclusive with Faults. 0 means unset.
	FaultSeed uint64 `json:"faultseed,omitempty"`
	// Shards is the DES shard count (0 = auto); it must divide the
	// spec's socket count. Bit-identical at any legal value.
	Shards int `json:"shards,omitempty"`
	// Workers caps how many of the job's experiments run concurrently
	// (0 = all CPUs). Bit-identical at any value.
	Workers int `json:"workers,omitempty"`
	// Stats instruments the run: every report carries its counter
	// snapshot, and GET /v1/jobs/{id}/stats serves the live registry.
	// The report cache is bypassed (counters describe the execution
	// that actually happened), so stats jobs are never warm.
	Stats bool `json:"stats,omitempty"`
}

// State is a job's lifecycle phase.
type State string

// The job lifecycle is linear: Queued (admitted, waiting for a worker)
// → Running (a worker is executing the suite) → Done (every report is
// final; failed experiments are FAILED reports inside a Done job, not
// a distinct job state). Interrupted is the one branch, and only
// recovery takes it: a job the journal shows mid-run when the process
// died is retired there — terminal, never re-run, resubmit to retry
// (see API.md "Restart semantics").
const (
	Queued      State = "queued"
	Running     State = "running"
	Done        State = "done"
	Interrupted State = "interrupted"
)

// Job is one admitted request and its results. All fields behind mu
// are owned by the service; handlers read them through the view
// methods.
type Job struct {
	// ID is "j<seq>-<fp>": a process-local admission sequence number
	// plus the short canonical request fingerprint. The fingerprint
	// half is stable across processes for identical requests; the
	// sequence half is provenance (admission order).
	ID string
	// Fingerprint is the full canonical request fingerprint (the
	// "p8d/job/v1" domain); identical normalized requests share it.
	Fingerprint canon.Fingerprint

	req  Request // normalized: spec/suite defaulted, experiments expanded
	m    *machine.Machine
	exps []power8.Experiment
	plan *power8.FaultPlan
	reg  *obs.Registry // per-job scope when req.Stats; nil otherwise
	// recovered marks a job rebuilt from the journal at boot rather
	// than admitted by this process. Immutable after Recover publishes
	// the job, so readable without mu.
	recovered bool

	mu        sync.Mutex
	state     State
	reports   []*power8.Report // fixed length, filled by completion
	cached    []bool           // per-report: served from the suite cache
	warmHint  []bool           // advisory ProbeReport answer at admission
	completed int
	submitted time.Time
	started   time.Time
	finished  time.Time
	changed   chan struct{} // closed and replaced on every progress event
	done      chan struct{} // closed once, on entering Done
}

// jobSpecs are the machine specifications a request can select,
// in catalog order.
var jobSpecs = []struct {
	name  string
	build func() *arch.SystemSpec
}{
	{"e870", arch.E870},
	{"max-smp", arch.MaxPOWER8SMP},
}

// SpecNames returns the selectable machine spec names in catalog order.
func SpecNames() []string {
	out := make([]string, len(jobSpecs))
	for i, s := range jobSpecs {
		out[i] = s.name
	}
	return out
}

// specByName resolves a spec selector ("" defaults to e870).
func specByName(name string) (*arch.SystemSpec, string, bool) {
	if name == "" {
		name = "e870"
	}
	for _, s := range jobSpecs {
		if s.name == name {
			return s.build(), s.name, true
		}
	}
	return nil, name, false
}

// badRequest is a submit-time validation failure; its message is the
// body of the 400 response.
type badRequest struct{ msg string }

// Error returns the client-facing message.
func (e *badRequest) Error() string { return e.msg }

func badf(format string, args ...any) *badRequest {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// normalize validates a request against the catalog and expands its
// defaults: the spec and suite selectors are resolved, Faults/FaultSeed
// become a validated plan, and an empty experiment list becomes the
// whole suite in canonical order. It returns the normalized request,
// the resolved inputs, or a *badRequest whose message is safe (and
// meant) to show the client verbatim.
func normalize(req Request, machines map[string]*machine.Machine) (Request, *machine.Machine, []power8.Experiment, *power8.FaultPlan, error) {
	spec, specName, ok := specByName(req.Spec)
	if !ok {
		return req, nil, nil, nil, badf("unknown spec %q (have: %s)", req.Spec, joinNames(SpecNames()))
	}
	req.Spec = specName

	if req.Faults != "" && req.FaultSeed != 0 {
		return req, nil, nil, nil, badf("faults and faultseed are mutually exclusive; pick one plan source")
	}
	faulted := req.Faults != "" || req.FaultSeed != 0
	if req.Suite == "" {
		if faulted {
			req.Suite = "degradation"
		} else {
			req.Suite = "paper"
		}
	}
	suite, ok := experiments.SuiteByName(req.Suite)
	if !ok {
		return req, nil, nil, nil, badf("unknown suite %q (have: %s)", req.Suite, joinNames(experiments.SuiteNames()))
	}
	if faulted && req.Suite != "degradation" {
		return req, nil, nil, nil, badf("fault plans apply to the degradation suite; drop faults/faultseed or set suite to \"degradation\"")
	}

	var plan *power8.FaultPlan
	if req.FaultSeed != 0 {
		plan = fault.Random(req.FaultSeed, spec, 4)
		req.Faults = plan.String()
	} else if req.Faults != "" {
		p, err := fault.Parse(req.Faults)
		if err != nil {
			return req, nil, nil, nil, &badRequest{msg: err.Error()}
		}
		// Validate's message names the offending event and the
		// topology bound it violates; it goes to the client verbatim.
		if err := p.Validate(spec); err != nil {
			return req, nil, nil, nil, &badRequest{msg: err.Error()}
		}
		plan = p
	}

	if req.Shards != 0 && !machine.ShardCountValid(spec, req.Shards) {
		return req, nil, nil, nil, badf("shards %d does not divide the %d-socket topology (use 0 for auto or a divisor of %d)",
			req.Shards, spec.Topology.Chips, spec.Topology.Chips)
	}
	if req.Workers < 0 {
		return req, nil, nil, nil, badf("workers must be >= 0, got %d", req.Workers)
	}

	exps, err := resolveExperiments(suite, req.Suite, req.Experiments)
	if err != nil {
		return req, nil, nil, nil, err
	}
	req.Experiments = make([]string, len(exps))
	for i, e := range exps {
		req.Experiments[i] = e.ID
	}
	return req, machines[req.Spec], exps, plan, nil
}

// resolveExperiments expands an id filter against a suite: empty means
// everything, duplicates and unknown ids are rejected (a canonical
// experiment list keeps the job fingerprint canonical).
func resolveExperiments(suite []power8.Experiment, suiteName string, ids []string) ([]power8.Experiment, error) {
	if len(ids) == 0 {
		return suite, nil
	}
	byID := make(map[string]power8.Experiment, len(suite))
	for _, e := range suite {
		byID[e.ID] = e
	}
	seen := make(map[string]bool, len(ids))
	out := make([]power8.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := byID[id]
		if !ok {
			return nil, badf("unknown experiment %q in suite %q (try GET /v1/catalog)", id, suiteName)
		}
		if seen[id] {
			return nil, badf("experiment %q listed twice", id)
		}
		seen[id] = true
		out = append(out, e)
	}
	return out, nil
}

// fingerprintJob computes the canonical job fingerprint. The domain is
// "p8d/job/v1"; the key covers the machine (spec and calibration, via
// canon.Machine), the suite name, the normalized experiment list in
// order, Quick, the fault plan's canonical event encoding, and Stats.
// Deliberately absent, per the PR-6/PR-7 bit-identity contracts:
// Shards and Workers (wall-time knobs that never change output) and
// FaultSeed (the seed is already materialized into plan events — a
// seeded request and its spelled-out equivalent are the same job).
func fingerprintJob(req Request, m *machine.Machine, plan *power8.FaultPlan) canon.Fingerprint {
	h := canon.NewHasher("p8d/job/v1")
	h.Fp(canon.Machine(m))
	h.Str(req.Suite)
	h.Int(len(req.Experiments))
	for _, id := range req.Experiments {
		h.Str(id)
	}
	h.Bool(req.Quick)
	plan.AppendCanon(h)
	h.Bool(req.Stats)
	return h.Sum()
}

// record stores one completed report (called from RunSuite's OnReport,
// possibly concurrently) and wakes every watcher.
func (j *Job) record(index int, rep *power8.Report, fromCache bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reports[index] = rep
	j.cached[index] = fromCache
	j.completed++
	j.wake()
}

// setRunning marks the job picked up by a worker.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = Running
	j.started = time.Now()
	j.wake()
}

// finish installs the final suite-ordered reports and moves the job to
// Done.
func (j *Job) finish(reports []*power8.Report) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reports = reports
	j.state = Done
	j.finished = time.Now()
	close(j.done)
	j.wake()
}

// wake closes and replaces the change channel; callers hold mu.
func (j *Job) wake() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// cacheTally counts warm and cold reports among those completed so
// far; callers hold mu.
func (j *Job) cacheTally() (hits, misses int) {
	for i, rep := range j.reports {
		if rep == nil {
			continue
		}
		if j.cached[i] {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
