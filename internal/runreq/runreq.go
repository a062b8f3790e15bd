// Package runreq decides what a valid run is and what it resolves to.
// A run is one machine plus one experiment list, optionally under a
// fault plan and at a DES shard count. The p8d service
// (internal/service), cmd/p8repro and cmd/p8sim all resolve their runs
// through Resolve, so each rule is written once: the shard count
// divides the socket count, faults and faultseed exclude each other, a
// plan must parse and fit the machine, and a seeded plan draws
// randomPlanEvents events.
//
// Wording that belongs to one front end stays there: Resolve's errors
// name request fields as the JSON body does, and a front end that
// spells them differently renders its own (Error.Render).
package runreq

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/parallel"
)

// Request is everything a client may vary about a run: the body of
// p8d's POST /v1/jobs, and what p8repro and p8sim build from their
// flags. The zero value is a valid request — the full paper suite on
// the E870 at full size. See API.md for the field-by-field reference
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

// randomPlanEvents is how many events a seeded random plan draws.
const randomPlanEvents = 4

// specs are the machine specifications a request can select, in
// catalog order.
var specs = []struct {
	name  string
	build func() *arch.SystemSpec
}{
	{"e870", arch.E870},
	{"max-smp", arch.MaxPOWER8SMP},
}

// SpecNames returns the selectable machine spec names in catalog order.
func SpecNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// Machines builds one machine per selectable spec, keyed by spec name.
// A Machine is read-only after construction, so one set serves every
// request a process resolves.
func Machines() map[string]*machine.Machine {
	out := make(map[string]*machine.Machine, len(specs))
	for _, s := range specs {
		out[s.name] = machine.New(s.build())
	}
	return out
}

// A Run is what a valid request resolves to.
type Run struct {
	// Request is the normalized request: spec and suite defaulted,
	// experiments expanded, a seed's plan spelled out in Faults.
	Request     Request
	Machine     *machine.Machine
	Experiments []experiments.Experiment // in run order
	Plan        *fault.Plan              // nil for a healthy run
}

// Resolve validates a request against machines (built by Machines) and
// expands its defaults: the spec and suite selectors are resolved,
// Faults or FaultSeed becomes a validated plan, and an empty
// experiment list becomes the whole suite in canonical order. A
// rejection is an *Error whose message is meant for the client
// verbatim. A normalized request resolves to itself, which is what
// p8d's journal replay relies on.
func Resolve(req Request, machines map[string]*machine.Machine) (Run, error) {
	if req.Spec == "" {
		req.Spec = specs[0].name
	}
	m, ok := machines[req.Spec]
	if !ok {
		return Run{}, reject(Invalid, "unknown spec %q (have: %s)", req.Spec, strings.Join(SpecNames(), ", "))
	}

	var plan *fault.Plan
	if req.FaultSeed != 0 {
		// A normalized seeded request carries its plan in Faults too.
		plan = fault.Random(req.FaultSeed, m.Spec, randomPlanEvents)
		if req.Faults != "" && req.Faults != plan.String() {
			return Run{}, reject(Invalid, "%s and %s are mutually exclusive; pick one plan source", field("faults"), field("faultseed"))
		}
		req.Faults = plan.String()
	}
	faulted := req.Faults != ""
	if req.Suite == "" {
		req.Suite = "paper"
		if faulted {
			req.Suite = "degradation"
		}
	}
	suite, ok := experiments.SuiteByName(req.Suite)
	if !ok {
		return Run{}, reject(Invalid, "unknown suite %q (have: %s)", req.Suite, strings.Join(experiments.SuiteNames(), ", "))
	}
	if faulted && req.Suite != "degradation" {
		return Run{}, reject(Invalid, "fault plans apply to the degradation suite; drop %s/%s or set %s to \"degradation\"", field("faults"), field("faultseed"), field("suite"))
	}

	if plan == nil && faulted {
		var err error
		if plan, err = fault.Parse(req.Faults); err == nil {
			err = plan.Validate(m.Spec)
		}
		if err != nil {
			// The fault package's message names the offending event
			// and the topology bound it violates.
			return Run{}, reject(BadPlan, "%s", err)
		}
	}

	if chips := m.Spec.Topology.Chips; req.Shards != 0 && !machine.ShardCountValid(m.Spec, req.Shards) {
		return Run{}, reject(Invalid, "%s %d does not divide the %d-socket topology (use 0 for auto or a divisor of %d)", field("shards"), req.Shards, chips, chips)
	}
	if req.Workers < 0 {
		return Run{}, reject(Invalid, "%s must be >= 0, got %d", field("workers"), req.Workers)
	}

	exps, err := pick(suite, req.Suite, req.Experiments)
	if err != nil {
		return Run{}, err
	}
	req.Experiments = make([]string, len(exps))
	for i, e := range exps {
		req.Experiments[i] = e.ID
	}
	return Run{Request: req, Machine: m, Experiments: exps, Plan: plan}, nil
}

// pick expands an id filter against a suite: empty means everything,
// duplicates and unknown ids are rejected (a canonical experiment list
// keeps the job fingerprint canonical).
func pick(suite []experiments.Experiment, suiteName string, ids []string) ([]experiments.Experiment, *Error) {
	if len(ids) == 0 {
		return suite, nil
	}
	out := make([]experiments.Experiment, 0, len(ids))
	for _, id := range ids {
		i := 0
		for i < len(suite) && suite[i].ID != id {
			i++
		}
		if i == len(suite) {
			return nil, reject(UnknownExperiment, "unknown experiment %q in suite %q", id, suiteName)
		}
		for _, e := range out {
			if e.ID == id {
				return nil, reject(Invalid, "experiment %q listed twice", id)
			}
		}
		out = append(out, suite[i])
	}
	return out, nil
}

// Kind classifies a rejected request for front ends that add their own
// guidance to the message.
type Kind int

const (
	// Invalid is any rejection without a more specific kind.
	Invalid Kind = iota
	// BadPlan is a fault plan that does not parse or does not fit the
	// machine.
	BadPlan
	// UnknownExperiment is an experiment id the selected suite lacks.
	UnknownExperiment
)

// Error is a request Resolve rejects. Error returns the message with
// request fields named as in the JSON body; Render spells them the way
// a front end does (a command line's -flag).
type Error struct {
	Kind   Kind
	format string
	args   []any // a field arg is a request field name
}

// field is a request field name among an Error's args.
type field string

func reject(kind Kind, format string, args ...any) *Error {
	return &Error{Kind: kind, format: format, args: args}
}

// Error returns the client-facing message.
func (e *Error) Error() string { return e.Render(func(name string) string { return name }) }

// Render returns the message with each request field spelled
// spell(name).
func (e *Error) Render(spell func(name string) string) string {
	args := append([]any(nil), e.args...)
	for i, a := range args {
		if f, ok := a.(field); ok {
			args[i] = spell(string(f))
		}
	}
	return fmt.Sprintf(e.format, args...)
}

// KernelFlags registers the kernel-runtime knob p8repro and p8d share
// on fs: -kernelworkers sizes the host kernels' worker teams. It is
// process-wide (see internal/parallel), not part of a Request. The
// returned apply checks the parsed value and installs it; a negative
// value is an error and installs nothing.
func KernelFlags(fs *flag.FlagSet) (apply func() error) {
	workers := fs.Int("kernelworkers", 0, "worker-team size for the host kernels (0 = GOMAXPROCS)")
	return func() error {
		if *workers < 0 {
			return fmt.Errorf("-kernelworkers must be >= 0, got %d", *workers)
		}
		parallel.SetDefaultWorkers(*workers)
		return nil
	}
}
