package service

import (
	"encoding/json"
	"fmt"

	power8 "repro"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/runreq"
)

// This file is the durability layer of the service: the write-ahead
// journal hooks on the job lifecycle and the boot-time recovery that
// rebuilds the job table from a replayed log.
//
// The discipline is log-before-act: every lifecycle transition is
// appended (and, under SyncAlways, fsynced) BEFORE the in-memory state
// it describes becomes observable. Admission is the strict case — a
// Submitted record that fails to append rejects the job with 503,
// because answering 202 is a promise a restart must be able to keep.
// Later transitions (Running, Report, Done) are best-effort: the job
// already exists durably, so a failed append degrades recovery fidelity
// (the restart re-runs or retires the job) rather than correctness, and
// is surfaced through the journal_append_errors counter and the
// "degraded" journal health in /v1/healthz.

// RecoverySummary reports what Recover rebuilt from the replayed log.
type RecoverySummary struct {
	// Requeued jobs were admitted but never started; they run again.
	Requeued int
	// Interrupted jobs were mid-run when the process died; they are
	// retired in the Interrupted state and clients must resubmit.
	Interrupted int
	// Done jobs completed before the restart; their reports are served
	// from the result cache without recomputation.
	Done int
	// Dropped jobs could not be reconstructed: their request no longer
	// resolves, or its fingerprint changed (a catalog or calibration
	// change invalidated the cached results). They are compacted away.
	Dropped int
}

// String renders the summary for the startup banner.
func (r RecoverySummary) String() string {
	return fmt.Sprintf("%d requeued, %d interrupted, %d done, %d dropped",
		r.Requeued, r.Interrupted, r.Done, r.Dropped)
}

// Recover rebuilds the job table from replayed journal records. It must
// run after New and before Start or any Submit: recovered queued jobs
// are pushed into the (grown, if necessary) admission queue, the
// admission sequence counter resumes past the highest recovered value,
// and the log is compacted to the minimal records that reproduce the
// recovered state — which also persists the Interrupted verdict for
// jobs found mid-run.
func (s *Service) Recover(records []journal.Record) RecoverySummary {
	var sum RecoverySummary
	states := journal.Reduce(records)

	// Reconstruction happens before the service lock: resolving and
	// fingerprinting read only immutable catalog state.
	type recovered struct {
		job *Job
		js  *journal.JobState
	}
	var keep []recovered
	var maxSeq uint64
	for _, js := range states {
		if js.Seq > maxSeq {
			maxSeq = js.Seq
		}
		job, ok := s.rebuildJob(js)
		if !ok {
			sum.Dropped++
			s.scope.Counter("jobs_recovery_dropped").Inc()
			continue
		}
		switch job.state {
		case Done:
			sum.Done++
		case Interrupted:
			js.Interrupted = true // persist the verdict through compaction
			sum.Interrupted++
		default:
			sum.Requeued++
		}
		keep = append(keep, recovered{job: job, js: js})
	}

	s.mu.Lock()
	var requeue []*Job
	for _, r := range keep {
		s.jobs[r.job.ID] = r.job
		s.order = append(s.order, r.job.ID)
		if r.job.state == Queued {
			requeue = append(requeue, r.job)
		}
	}
	if s.seq < maxSeq {
		s.seq = maxSeq
	}
	// Grow the queue when the recovered backlog exceeds the configured
	// depth: an admitted job is a promise, and the promise outlives the
	// process that made it.
	if need := len(s.queue) + len(requeue); need > cap(s.queue) {
		grown := make(chan *Job, need)
	drain:
		for {
			select {
			case job := <-s.queue:
				select {
				case grown <- job:
				default:
					// Unreachable: grown is sized for everything the old
					// queue holds.
				}
			default:
				break drain
			}
		}
		s.queue = grown
	}
	for _, job := range requeue {
		select {
		case s.queue <- job:
		default:
			// Unreachable: the queue was just sized to fit and nothing
			// drains it before Start. Kept non-blocking so recovery can
			// never wedge under the service lock.
		}
	}
	s.scope.Counter("jobs_recovered").Add(uint64(len(keep)))
	s.mu.Unlock()

	if s.opts.Journal != nil {
		var recs []journal.Record
		for _, r := range keep {
			recs = append(recs, journal.CompactionRecords(r.js)...)
		}
		if err := s.opts.Journal.Compact(recs); err != nil {
			s.scope.Counter("journal_compact_errors").Inc()
		}
	}
	return sum
}

// rebuildJob reconstructs one job from its reduced journal state. ok is
// false when the request no longer resolves against this binary's
// catalog, or resolves to a different fingerprint — either way the
// cached results the log points at are not the results this binary
// would produce, so the job is dropped rather than resurrected wrong.
func (s *Service) rebuildJob(js *journal.JobState) (*Job, bool) {
	var req Request
	if err := json.Unmarshal(js.Request, &req); err != nil {
		return nil, false
	}
	run, err := runreq.Resolve(req, s.machines)
	if err != nil {
		return nil, false
	}
	fp := fingerprintJob(run)
	if fp != js.Fingerprint {
		return nil, false
	}
	n := len(run.Experiments)
	job := &Job{
		ID:          js.ID,
		Fingerprint: fp,
		run:         run,
		recovered:   true,
		reports:     make([]*power8.Report, n),
		cached:      make([]bool, n),
		warmHint:    make([]bool, n),
		changed:     make(chan struct{}),
		done:        make(chan struct{}),
	}
	// Wall-clock provenance died with the previous process; recovered
	// jobs carry none (their *At fields are omitted from the JSON view).
	switch {
	case js.Done:
		job.state = Done
		job.completed = n
		for idx, fromCache := range js.Reports {
			if int(idx) < len(job.cached) {
				job.cached[idx] = fromCache
			}
		}
		close(job.done)
	case js.Started || js.Interrupted:
		job.state = Interrupted
		close(job.done)
	default:
		job.state = Queued
		if req.Stats {
			job.reg = obs.NewRegistry("job")
		}
	}
	return job, true
}

// journalSubmitted durably records an admission; the error aborts the
// admission. Callers hold s.mu (the journal serializes internally, but
// the record must hit the log before the job is published to workers).
func (s *Service) journalSubmitted(job *Job, seq uint64, reqJSON []byte) error {
	if s.opts.Journal == nil {
		return nil
	}
	err := s.opts.Journal.Append(journal.Record{
		Kind:        journal.KindSubmitted,
		JobID:       job.ID,
		Seq:         seq,
		Fingerprint: job.Fingerprint,
		Request:     reqJSON,
	})
	if err != nil {
		s.scope.Counter("journal_append_errors").Inc()
	}
	return err
}

// journalAppend best-effort records a post-admission transition; a
// failure is counted and the service carries on (see the file comment
// for why that is sound).
func (s *Service) journalAppend(r journal.Record) {
	if s.opts.Journal == nil {
		return
	}
	if err := s.opts.Journal.Append(r); err != nil {
		s.scope.Counter("journal_append_errors").Inc()
	}
}

// loadRecoveredReports reassembles a recovered done job's reports from
// the result cache — the journal stores provenance, the cache stores
// bytes. ok is false when any report is no longer resident (evicted
// since the previous process, or the job bypassed the cache): the job's
// results are gone and the client must resubmit. On success the loaded
// reports are installed on the job, so later fetches are memory hits.
func (s *Service) loadRecoveredReports(job *Job) ([]*power8.Report, bool) {
	if s.opts.Cache == nil || job.run.Request.Stats {
		return nil, false
	}
	opts := s.runOptions(job)
	reports := make([]*power8.Report, len(job.run.Experiments))
	for i, e := range job.run.Experiments {
		rep, ok := s.opts.Cache.LoadReport(e, job.run.Machine, opts)
		if !ok {
			s.scope.Counter("recovered_reports_missing").Inc()
			return nil, false
		}
		reports[i] = rep
	}
	job.mu.Lock()
	job.reports = reports
	job.mu.Unlock()
	s.scope.Counter("recovered_reports_served").Inc()
	return reports, true
}
