package service

import (
	"sync"
	"time"

	power8 "repro"
	"repro/internal/canon"
	"repro/internal/obs"
	"repro/internal/runreq"
)

// Request is the body of POST /v1/jobs; see runreq.Request.
type Request = runreq.Request

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

	run runreq.Run
	reg *obs.Registry // per-job scope when run.Request.Stats; nil otherwise
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

// fingerprintJob computes the canonical job fingerprint. The domain is
// "p8d/job/v1"; the key covers the machine (spec and calibration, via
// canon.Machine), the suite name, the normalized experiment list in
// order, Quick, the fault plan's canonical event encoding, and Stats.
// Deliberately absent, per the PR-6/PR-7 bit-identity contracts:
// Shards and Workers (wall-time knobs that never change output) and
// FaultSeed (the seed is materialized into the plan, whose canonical
// encoding carries it and the plan name "random-<seed>").
func fingerprintJob(run runreq.Run) canon.Fingerprint {
	req := run.Request
	h := canon.NewHasher("p8d/job/v1")
	h.Fp(canon.Machine(run.Machine))
	h.Str(req.Suite)
	h.Int(len(req.Experiments))
	for _, id := range req.Experiments {
		h.Str(id)
	}
	h.Bool(req.Quick)
	run.Plan.AppendCanon(h)
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
