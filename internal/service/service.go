// Package service is the engine room of cmd/p8d: a long-running
// simulation service over the repository's experiment harness. It
// turns HTTP/JSON job requests into hardened, memoized RunSuite calls
// and serves their results — poll, long-poll, or stream — together
// with the live obs counter registry.
//
// The moving parts, front to back:
//
//   - Admission: POST /v1/jobs validates a Request against the machine
//     catalog and the fault grammar (400 with the validator's message),
//     then tries a non-blocking push into a bounded queue — a full
//     queue answers 429 immediately rather than holding the connection
//     hostage (admission control, not backpressure-by-timeout).
//   - Execution: a fixed pool of job workers drains the queue. Each
//     job is one power8.RunSuite call: panic-isolated per experiment,
//     optionally instrumented with a per-job obs registry, served
//     through the shared SuiteCache so identical requests are warm and
//     bit-identical.
//   - Shutdown: Shutdown stops admission (503), closes the queue, and
//     waits for the workers to drain every admitted job — an accepted
//     job is a promise, and SIGINT keeps it.
//
// See API.md at the repository root for the full endpoint reference
// and DESIGN.md "Service architecture" for the queue/shutdown design.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	power8 "repro"
	"repro/internal/canon"
	"repro/internal/journal"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Options configures a Service. The zero value is usable: a 16-deep
// queue, one job worker, no cache, no instrumentation.
type Options struct {
	// QueueDepth bounds how many admitted jobs may wait for a worker;
	// a submit beyond it is rejected with 429. <= 0 means 16.
	QueueDepth int
	// Workers is the number of concurrent job executors; <= 0 means 1.
	// Each job's internal experiment parallelism is the request's own
	// Workers field — this knob is across jobs, that one within.
	Workers int
	// Cache, when non-nil, memoizes reports across jobs; identical
	// requests are served bit-identically from it. Sharing one cache across the whole service is the point.
	Cache *power8.SuiteCache
	// Stats, when non-nil, receives the service's own counters under a
	// "p8d" child scope (admission, rejections, completions, cache
	// provenance) and is served live at GET /v1/stats. Per-job
	// instrumentation (Request.Stats) is separate and always available.
	Stats *obs.Registry
	// WaitLimit caps the ?wait long-poll parameter; <= 0 means 60s.
	WaitLimit time.Duration
	// Journal, when non-nil, is the write-ahead job journal: every
	// lifecycle transition is logged before it becomes observable, and
	// Recover rebuilds the job table from a replayed log at boot. nil
	// means jobs are process-local, as before PR 10.
	Journal *journal.Journal
}

// Service is the job queue, worker pool and job index behind the HTTP
// API. Build with New, wire with Handler, start with Start, stop with
// Shutdown.
type Service struct {
	opts     Options
	machines map[string]*machine.Machine
	scope    *obs.Registry // "p8d" child of Options.Stats; nil-safe
	queue    chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // admission order, for GET /v1/jobs
	seq      uint64
	draining bool
	started  bool

	wg sync.WaitGroup
}

// New builds a service: the machine catalog is constructed once (one
// frozen Machine per spec, shared read-only by every job — the same
// invariant the parallel harness relies on) and the queue is sized.
func New(opts Options) *Service {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.WaitLimit <= 0 {
		opts.WaitLimit = 60 * time.Second
	}
	machines := make(map[string]*machine.Machine, len(jobSpecs))
	for _, s := range jobSpecs {
		machines[s.name] = machine.New(s.build())
	}
	return &Service{
		opts:     opts,
		machines: machines,
		scope:    opts.Stats.Child("p8d"),
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     map[string]*Job{},
	}
}

// Start launches the worker pool. It is idempotent; Submit before
// Start only queues (nothing executes until workers exist).
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains the service: admission stops (new submits get 503),
// the queue closes, and every already-admitted job runs to completion
// before Shutdown returns — unless ctx expires first, in which case
// the workers keep draining in the background and ctx.Err() is
// returned. Idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submitErr is an admission failure with its HTTP status.
type submitErr struct {
	code int
	msg  string
}

// Error returns the client-facing message.
func (e *submitErr) Error() string { return e.msg }

// Submit validates, fingerprints and admits one request. On success
// the job is queued and indexed; the error cases are typed for the
// HTTP layer: *badRequest (400), queue full (429), draining (503).
func (s *Service) Submit(req Request) (*Job, error) {
	req, m, exps, plan, err := normalize(req, s.machines)
	if err != nil {
		s.scope.Counter("jobs_rejected_invalid").Inc()
		return nil, err
	}
	job := &Job{
		Fingerprint: fingerprintJob(req, m, plan),
		req:         req,
		m:           m,
		exps:        exps,
		plan:        plan,
		state:       Queued,
		reports:     make([]*power8.Report, len(exps)),
		cached:      make([]bool, len(exps)),
		warmHint:    make([]bool, len(exps)),
		submitted:   time.Now(),
		changed:     make(chan struct{}),
		done:        make(chan struct{}),
	}
	if req.Stats {
		// The per-job registry is a detached root (not a child of the
		// service scope): jobs are unbounded over the service's life,
		// and a registry child would pin every job's counters forever.
		job.reg = obs.NewRegistry("job")
	}
	// The advisory warm hint: probe the cache for each experiment's
	// report key. Stats jobs bypass the report cache, so their hint
	// stays all-cold.
	if s.opts.Cache != nil && !req.Stats {
		opts := s.runOptions(job)
		for i, e := range exps {
			job.warmHint[i] = s.opts.Cache.ProbeReport(e, m, opts)
		}
	}

	// The journal's Submitted record carries the normalized request, so
	// a restarted process re-normalizes to the identical job.
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.scope.Counter("jobs_rejected_draining").Inc()
		return nil, &submitErr{code: http.StatusServiceUnavailable, msg: "service is draining; not accepting jobs"}
	}
	// The full-queue check happens BEFORE the journal append: a job the
	// queue cannot hold must not reach the log (a restart would admit
	// it). Between this check and the send the queue can only drain
	// (workers never enqueue), so the send cannot block.
	if len(s.queue) == cap(s.queue) {
		s.scope.Counter("jobs_rejected_full").Inc()
		return nil, &submitErr{code: http.StatusTooManyRequests, msg: "job queue is full; retry later"}
	}
	// The ID must be written BEFORE the job is pushed into the queue:
	// the channel send publishes the job to the worker pool, and any
	// field written after it races with the worker. On rejection the
	// sequence number rolls back so admission numbering stays dense.
	s.seq++
	job.ID = jobID(s.seq, job.Fingerprint)
	// Log-before-act: the Submitted record must be durable before the
	// job becomes runnable. 202 is a promise a restart has to keep, so
	// an append failure rejects the admission instead of weakening it.
	if err := s.journalSubmitted(job, s.seq, reqJSON); err != nil {
		s.seq--
		return nil, &submitErr{code: http.StatusServiceUnavailable, msg: "job journal unavailable; not accepting jobs"}
	}
	select {
	case s.queue <- job:
	default:
		s.seq--
		s.scope.Counter("jobs_rejected_full").Inc()
		return nil, &submitErr{code: http.StatusTooManyRequests, msg: "job queue is full; retry later"}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.scope.Counter("jobs_submitted").Inc()
	s.scope.Gauge("queue_depth").Set(int64(len(s.queue)))
	return job, nil
}

// jobID renders "j<seq>-<shortfp>": admission order plus the stable
// short fingerprint, so two identical requests share their suffix.
func jobID(seq uint64, fp canon.Fingerprint) string {
	return fmt.Sprintf("j%d-%s", seq, fp.Short())
}

// Job returns a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in admission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// worker drains the queue until Shutdown closes it.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.scope.Gauge("queue_depth").Set(int64(len(s.queue)))
		s.runJob(job)
	}
}

// runOptions maps a job onto the hardened harness: the shared cache,
// the job's own registry (when instrumented), and the request's
// wall-time knobs.
func (s *Service) runOptions(job *Job) power8.RunOptions {
	return power8.RunOptions{
		Quick:   job.req.Quick,
		Workers: job.req.Workers,
		Faults:  job.plan,
		Shards:  job.req.Shards,
		Stats:   job.reg,
		Cache:   s.opts.Cache,
	}
}

// runJob executes one job through RunSuite. Panic isolation lives in
// the harness (one broken experiment is one FAILED report); the
// OnReport hook feeds per-experiment progress and warm/cold provenance
// back into the job as it happens.
func (s *Service) runJob(job *Job) {
	// Each transition is journaled before it is published (log-before-
	// act); see durable.go for why these appends are best-effort.
	s.journalAppend(journal.Record{Kind: journal.KindRunning, JobID: job.ID})
	job.setRunning()
	s.scope.Counter("jobs_started").Inc()
	opts := s.runOptions(job)
	opts.OnReport = func(i int, rep *power8.Report, fromCache bool) {
		if fromCache {
			s.scope.Counter("reports_cached").Inc()
		} else {
			s.scope.Counter("reports_computed").Inc()
		}
		s.journalAppend(journal.Record{Kind: journal.KindReport, JobID: job.ID, Index: uint32(i), FromCache: fromCache})
		job.record(i, rep, fromCache)
	}
	reports := power8.RunSuite(job.exps, job.m, opts)
	// Done hits the log before the done channel closes: once a client
	// sees "done", a restart will too (the reports themselves were
	// persisted by the disk cache as they were computed).
	s.journalAppend(journal.Record{Kind: journal.KindDone, JobID: job.ID})
	job.finish(reports)
	s.scope.Counter("jobs_completed").Inc()
}
