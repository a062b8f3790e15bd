// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner drives the machine model, the host
// kernels or the projections, renders the same rows/series the paper
// reports, and records paper-vs-measured checks that cmd/p8repro turns
// into EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Context carries the shared inputs of a run.
type Context struct {
	Machine *machine.Machine
	// Quick reduces working sets and scales so the full suite finishes
	// in seconds (used by tests and `go test -bench`); the default
	// full-size run is what EXPERIMENTS.md records.
	Quick bool
	// Threads for host-run kernels; 0 means all CPUs.
	Threads int
	// Obs, when non-nil, is the registry scope this experiment's
	// counters land in. The harness hands every experiment its own
	// child registry, so counters from concurrently running experiments
	// never smear together; runners thread it into the walkers and
	// simulators they build. Nil (the default) runs uninstrumented.
	Obs *obs.Registry
	// Budget, when non-nil, is the harness watchdog for this run:
	// runners thread it into the walkers and DES simulations they
	// build, each simulated event charges one unit, and exhaustion (or
	// external cancellation) aborts the experiment with an engine.Trip
	// panic that the harness's isolation wrapper converts into a failed
	// report. Nil (the default) runs unwatched.
	Budget *engine.Budget
	// Faults, when non-nil, selects the RAS degradation plan the
	// fault-suite experiments apply; nil falls back to each
	// experiment's default canned plan. The paper-suite experiments
	// ignore it — they always describe the healthy machine.
	Faults *fault.Plan
	// Shards selects the DES shard count for the Figure-4-class
	// simulations (machine.SimulateRandomAccessSharded): 1 runs the
	// sequential merged engine, larger divisors of the socket count run
	// that many parallel shard workers, and 0 (the default) picks
	// machine.AutoShards. Any legal value produces bit-identical
	// results — the knob trades wall time, never output.
	Shards int
}

// Derive builds the degraded machine for a plan against this context's
// machine, with the machine's own calibration profiles.
func (ctx *Context) Derive(p *fault.Plan) *machine.Machine {
	m := ctx.Machine
	return p.DeriveWithCalibration(m.Spec, m.Net.Calibration(), m.Mem.Calibration())
}

// Check is one paper-vs-produced comparison.
type Check struct {
	Name string
	Got  float64
	Want float64 // the paper's value; 0 means shape-only (no numeric ref)
	Tol  float64 // acceptable fraction, e.g. 0.05
	// Min marks a lower-bound check: pass when Got >= Want (e.g. "the
	// L4 saves more than 30 ns").
	Min bool
}

// Pass reports whether the check holds. Shape-only checks (Want == 0,
// not Min) are recorded observations and always pass.
func (c Check) Pass() bool {
	if c.Min {
		return c.Got >= c.Want
	}
	if c.Want == 0 {
		return true
	}
	return stats.Within(c.Got, c.Want, c.Tol)
}

// String renders the check for reports.
func (c Check) String() string {
	switch {
	case c.Min:
		status := "ok"
		if !c.Pass() {
			status = "MISMATCH"
		}
		return fmt.Sprintf("%-44s got %12.4g   want >= %8.4g   %s", c.Name, c.Got, c.Want, status)
	case c.Want == 0:
		return fmt.Sprintf("%-44s got %12.4g   (shape only)", c.Name, c.Got)
	default:
		status := "ok"
		if !c.Pass() {
			status = "MISMATCH"
		}
		return fmt.Sprintf("%-44s got %12.4g   paper %12.4g   (±%.0f%%) %s",
			c.Name, c.Got, c.Want, c.Tol*100, status)
	}
}

// Report is a runner's output.
type Report struct {
	ID     string
	Title  string
	Lines  []string // rendered rows/series in the paper's layout
	Notes  []string // substitutions, calibrations, caveats
	Checks []Check
	// Stats is the experiment's counter snapshot when the run was
	// observed (Context.Obs non-nil); nil otherwise. cmd/p8repro's
	// -stats flag renders it as the per-experiment counter appendix.
	Stats *obs.Snapshot
	// Err is the failure diagnostic when the experiment did not
	// complete: a recovered panic (with stack), a tripped watchdog
	// budget, or a cancellation. A report with a non-empty Err failed
	// regardless of its checks; its Lines hold whatever was rendered
	// before the abort.
	Err string
}

// Printf appends a formatted line to the report.
func (r *Report) Printf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Note appends a formatted note.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Checkf records a paper-vs-measured comparison.
func (r *Report) Checkf(name string, got, want, tol float64) {
	r.Checks = append(r.Checks, Check{Name: name, Got: got, Want: want, Tol: tol})
}

// CheckMin records a lower-bound check: got must be at least want.
func (r *Report) CheckMin(name string, got, want float64) {
	r.Checks = append(r.Checks, Check{Name: name, Got: got, Want: want, Min: true})
}

// CheckRatio records an order-of-magnitude comparison: got must be within
// a factor of maxRatio of want (both directions). Used where the
// substitution (synthetic basis, synthetic matrices) preserves scale but
// not exact values.
func (r *Report) CheckRatio(name string, got, want, maxRatio float64) {
	ratio := got / want
	if ratio < 1 {
		ratio = 1 / ratio
	}
	r.Checks = append(r.Checks, Check{
		Name: fmt.Sprintf("%s [got %.3g, paper %.3g, within %gx]", name, got, want, maxRatio),
		Got:  maxRatio - ratio, Want: 0, Min: true,
	})
}

// Passed reports whether the experiment completed and every check
// passed.
func (r *Report) Passed() bool {
	if r.Failed() {
		return false
	}
	for _, c := range r.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// Failed reports whether the experiment aborted (panic, watchdog trip
// or cancellation) instead of completing.
func (r *Report) Failed() bool { return r.Err != "" }

// Experiment is one table or figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) *Report
}

// All returns every experiment in the paper's order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: POWER7 and POWER8 at a glance", Run: runTable1},
		{ID: "table2", Title: "Table II: Characteristics of the IBM Power System E870", Run: runTable2},
		{ID: "figure1", Title: "Figure 1: High-level block diagram of the E870", Run: runFigure1},
		{ID: "figure2", Title: "Figure 2: Observed memory read latency on E870", Run: runFigure2},
		{ID: "table3", Title: "Table III: Observed memory bandwidth vs read:write ratio", Run: runTable3},
		{ID: "figure3", Title: "Figure 3: Memory bandwidth scaling with threads and cores", Run: runFigure3},
		{ID: "table4", Title: "Table IV: Memory read access latency and bandwidth between chips", Run: runTable4},
		{ID: "figure4", Title: "Figure 4: Random-access bandwidth vs threads and outstanding requests", Run: runFigure4},
		{ID: "figure5", Title: "Figure 5: FMA throughput vs threads per core and loop FMAs", Run: runFigure5},
		{ID: "figure6", Title: "Figure 6: Latency and bandwidth vs DSCR prefetch depth", Run: runFigure6},
		{ID: "figure7", Title: "Figure 7: Stride-256 latency with stride-N detection on/off", Run: runFigure7},
		{ID: "figure8", Title: "Figure 8: DCBT benefit for randomly ordered sequential blocks", Run: runFigure8},
		{ID: "figure9", Title: "Figure 9: Roofline for the IBM Power System E870", Run: runFigure9},
		{ID: "figure10", Title: "Figure 10: All-pairs Jaccard similarity on R-MAT graphs", Run: runFigure10},
		{ID: "figure11", Title: "Figure 11: CSR SpMV performance across the matrix suite", Run: runFigure11},
		{ID: "figure12", Title: "Figure 12: Graph SpMV scalability on R-MAT graphs", Run: runFigure12},
		{ID: "table5", Title: "Table V: Test molecular systems", Run: runTable5},
		{ID: "table6", Title: "Table VI: Timings for HF-Comp and HF-Mem on E870", Run: runTable6},
	}
}

// SuiteNames returns the named suites a caller can run, in a fixed
// order: "paper" (every table and figure of the evaluation, All) and
// "degradation" (the fault sweeps, DegradationSuite). p8d's job
// requests and catalog endpoint select suites by these names.
func SuiteNames() []string { return []string{"paper", "degradation"} }

// SuiteByName resolves a suite name from SuiteNames; ok is false for
// anything else.
func SuiteByName(name string) (suite []Experiment, ok bool) {
	switch name {
	case "paper":
		return All(), true
	case "degradation":
		return DegradationSuite(), true
	}
	return nil, false
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// newReport constructs a report header.
func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title}
}
