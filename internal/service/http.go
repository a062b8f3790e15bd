package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	power8 "repro"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
)

// This file is the HTTP surface of p8d. Every endpoint, schema and
// error code here is documented in API.md at the repository root —
// doccheck keeps that file in the lint scope, so if you change a
// handler, change the document.

// errorBody is the JSON envelope of every non-2xx response.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// jobView is the JSON shape of a job in list/detail/submit responses.
// Reports are deliberately not inline — GET /v1/jobs/{id}/reports
// serves them canonically — so polling stays cheap. The *Seconds
// fields and ID's admission-sequence half are provenance of this
// particular execution and differ between identical requests; every
// other field is a pure function of the normalized request.
type jobView struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	State       State   `json:"state"`
	Request     Request `json:"request"`
	// Completed / Total count finished experiments; Total is fixed at
	// admission.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// CacheHits / CacheMisses attribute completed reports to the warm
	// path (served from the suite cache) or the cold path (executed).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// WarmHint is the advisory per-experiment cache probe taken at
	// admission, in experiment order; the authoritative attribution is
	// CacheHits/CacheMisses once reports complete.
	WarmHint []bool `json:"warm_hint,omitempty"`
	// Recovered marks a job rebuilt from the journal by a restart
	// rather than admitted by this process; recovered jobs carry no
	// wall-clock provenance (the *At fields are omitted) and a
	// recovered done job serves its reports from the result cache.
	Recovered bool `json:"recovered,omitempty"`
	// SubmittedAt, and once reached, StartedAt/FinishedAt, are
	// RFC 3339 wall-clock provenance (volatile; never part of the
	// fingerprint or the reports body). All three are omitted on
	// recovered jobs: the clock readings died with the process that
	// took them, and the journal deliberately stores none.
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// ReportsURL is where the canonical results land when State is
	// "done".
	ReportsURL string `json:"reports_url"`
}

// view renders a job under its lock.
func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	hits, misses := j.cacheTally()
	v := jobView{
		ID:          j.ID,
		Fingerprint: j.Fingerprint.String(),
		State:       j.state,
		Request:     j.req,
		Completed:   j.completed,
		Total:       len(j.exps),
		CacheHits:   hits,
		CacheMisses: misses,
		WarmHint:    j.warmHint,
		Recovered:   j.recovered,
		ReportsURL:  "/v1/jobs/" + j.ID + "/reports",
	}
	if !j.submitted.IsZero() {
		v.SubmittedAt = j.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// streamLine is one NDJSON report line of GET /v1/jobs/{id}/stream:
// one per experiment, in suite order, as each completes.
type streamLine struct {
	Index  int            `json:"index"`
	ID     string         `json:"id"`
	Cached bool           `json:"cached"`
	Report *power8.Report `json:"report"`
}

// streamTrailer is the final NDJSON line of a stream: the only line
// with a "state" field (and no "report"), carrying the job's cache
// attribution.
type streamTrailer struct {
	State       State `json:"state"`
	CacheHits   int   `json:"cache_hits"`
	CacheMisses int   `json:"cache_misses"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs               submit a job            202 | 400 | 413 | 429 | 503
//	GET  /v1/jobs               list jobs               200
//	GET  /v1/jobs/{id}          poll one job (?wait=5s) 200 | 404
//	GET  /v1/jobs/{id}/reports  canonical results       200 | 404 | 409
//	GET  /v1/jobs/{id}/stream   NDJSON progress stream  200 | 404
//	GET  /v1/jobs/{id}/stats    per-job counters        200 | 404
//	GET  /v1/stats              service-wide counters   200
//	GET  /v1/catalog            specs/suites/plans      200
//	GET  /v1/healthz            liveness + queue state  200
//
// See API.md for request/response schemas, the cache-key contract and
// curl walkthroughs.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/reports", s.handleReports)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/stats", s.handleJobStats)
	mux.Handle("GET /v1/stats", s.opts.Stats)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s.counting(mux)
}

// counting wraps the mux with the service-wide request counter.
func (s *Service) counting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.scope.Counter("http_requests").Inc()
		next.ServeHTTP(w, r)
	})
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes the error envelope.
func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Status: code})
}

// maxRequestBytes caps a POST /v1/jobs body. The largest legitimate
// request (every experiment id plus a long fault plan) is a few KiB.
const maxRequestBytes = 1 << 20

// handleSubmit is POST /v1/jobs.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		switch e := err.(type) {
		case *badRequest:
			writeErr(w, http.StatusBadRequest, e.msg)
		case *submitErr:
			if e.code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, e.code, e.msg)
		default:
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.view())
}

// handleList is GET /v1/jobs.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{Jobs: views})
}

// handleJob is GET /v1/jobs/{id}, with optional long-poll: ?wait=<Go
// duration> blocks until the job is done or the wait (capped at
// Options.WaitLimit) expires, then responds either way.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad wait duration %q: %v", waitStr, err))
			return
		}
		if wait > s.opts.WaitLimit {
			wait = s.opts.WaitLimit
		}
		deadline := time.NewTimer(wait)
		defer deadline.Stop()
		select {
		case <-job.done:
		case <-deadline.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, job.view())
}

// handleReports is GET /v1/jobs/{id}/reports: the canonical results
// body — the suite-ordered reports array, indented JSON. For an
// uninstrumented request this body is a pure function of the
// normalized request: a warm replay is byte-identical to the cold run
// that populated the cache (the CI smoke job cmp's exactly this, and
// the crash-recovery smoke extends the identity across a kill -9). A
// job that is not done yet answers 409; a job a restart interrupted,
// or a recovered job whose reports have since left the result cache,
// answers 410 — in both cases the remedy is to resubmit the request.
func (s *Service) handleReports(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	job.mu.Lock()
	state := job.state
	reports := job.reports
	job.mu.Unlock()
	switch {
	case state == Interrupted:
		writeErr(w, http.StatusGone, fmt.Sprintf("job %s was interrupted by a service restart and will not resume; resubmit the request", job.ID))
	case state != Done:
		writeErr(w, http.StatusConflict, fmt.Sprintf("job %s is %s, not done; poll /v1/jobs/%s?wait=30s", job.ID, state, job.ID))
	case reportsMissing(reports):
		// Only recovered jobs have nil slots: this process never ran
		// them, so the bytes live (or lived) in the result cache.
		if loaded, ok := s.loadRecoveredReports(job); ok {
			writeJSON(w, http.StatusOK, loaded)
		} else {
			writeErr(w, http.StatusGone, fmt.Sprintf("job %s predates this process and its reports are no longer cached; resubmit the request", job.ID))
		}
	default:
		writeJSON(w, http.StatusOK, reports)
	}
}

// reportsMissing reports whether any report slot is unfilled.
func reportsMissing(reports []*power8.Report) bool {
	for _, rep := range reports {
		if rep == nil {
			return true
		}
	}
	return false
}

// handleStream is GET /v1/jobs/{id}/stream: NDJSON, one line per
// report. Lines are emitted in suite order as soon as every earlier
// experiment has completed — completion order itself is racy, suite
// order is deterministic — and a trailer line with "state":"done"
// closes the stream. The stream content for an uninstrumented request
// is as deterministic as the reports body.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	// A recovered done job streams its cache-loaded reports; if they
	// are gone the stream is just the trailer (the 410 detail lives on
	// /reports).
	job.mu.Lock()
	missing := job.state == Done && reportsMissing(job.reports)
	job.mu.Unlock()
	if job.recovered && missing {
		_, _ = s.loadRecoveredReports(job)
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		job.mu.Lock()
		var ready []streamLine
		for next < len(job.reports) && job.reports[next] != nil {
			ready = append(ready, streamLine{
				Index:  next,
				ID:     job.reports[next].ID,
				Cached: job.cached[next],
				Report: job.reports[next],
			})
			next++
		}
		state := job.state
		changed := job.changed
		// A Done job with a nil slot at the cursor is a recovered job
		// whose reports could not be reloaded: no more lines are ever
		// coming, so the stream ends at the trailer.
		stalled := state == Done && next < len(job.reports) && job.reports[next] == nil
		job.mu.Unlock()
		for _, line := range ready {
			if err := enc.Encode(line); err != nil {
				return
			}
		}
		if len(ready) > 0 && flusher != nil {
			flusher.Flush()
		}
		if state == Interrupted || (state == Done && next == len(job.reports)) || stalled {
			job.mu.Lock()
			hits, misses := job.cacheTally()
			job.mu.Unlock()
			_ = enc.Encode(streamTrailer{State: state, CacheHits: hits, CacheMisses: misses})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobStats is GET /v1/jobs/{id}/stats: the job's own counter
// registry (live while running, final afterwards), with the obs
// handler's format negotiation — JSON by default, ?format=markdown for
// the table form. A job submitted without "stats": true serves the
// empty snapshot.
func (s *Service) handleJobStats(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	if job.reg == nil {
		// The nil-registry contract: an uninstrumented job stays
		// browsable and serves its empty snapshot.
		obs.ServeSnapshot(w, r, obs.Snapshot{})
		return
	}
	job.reg.ServeHTTP(w, r)
}

// catalogView is GET /v1/catalog's body: everything a client can put
// in a Request, enumerated.
type catalogView struct {
	Specs  []string           `json:"specs"`
	Suites []catalogSuiteView `json:"suites"`
	// CannedFaultPlans are the named plans Request.Faults accepts in
	// place of the event grammar.
	CannedFaultPlans []string `json:"canned_fault_plans"`
}

// catalogSuiteView is one suite and its experiments.
type catalogSuiteView struct {
	Name        string              `json:"name"`
	Experiments []catalogExperiment `json:"experiments"`
}

// catalogExperiment is one experiment id and its title.
type catalogExperiment struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// handleCatalog is GET /v1/catalog.
func (s *Service) handleCatalog(w http.ResponseWriter, r *http.Request) {
	cat := catalogView{
		Specs:            SpecNames(),
		CannedFaultPlans: fault.CannedNames(),
	}
	for _, name := range experiments.SuiteNames() {
		suite, _ := experiments.SuiteByName(name)
		sv := catalogSuiteView{Name: name}
		for _, e := range suite {
			sv.Experiments = append(sv.Experiments, catalogExperiment{ID: e.ID, Title: e.Title})
		}
		cat.Suites = append(cat.Suites, sv)
	}
	writeJSON(w, http.StatusOK, cat)
}

// healthView is GET /v1/healthz's body.
type healthView struct {
	// Status is "ok" while admitting, "draining" once Shutdown began.
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Workers    int    `json:"workers"`
	Jobs       int    `json:"jobs"`
	// Journal is "off" (no -journal), "ok" (appends landing), or
	// "degraded" (the active segment broke; the journal rotates away on
	// the next append, but the last append did not reach the log).
	Journal string `json:"journal"`
}

// handleHealthz is GET /v1/healthz.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	journalStatus := "off"
	if s.opts.Journal != nil {
		if s.opts.Journal.Healthy() {
			journalStatus = "ok"
		} else {
			journalStatus = "degraded"
		}
	}
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	v := healthView{
		Status:     status,
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Workers:    s.opts.Workers,
		Jobs:       len(s.jobs),
		Journal:    journalStatus,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// NewHTTPServer wraps a handler in an http.Server with the network
// hygiene a long-running daemon needs: ReadHeaderTimeout bounds how
// long a connection may dribble its request head (a slow-loris client
// cannot pin a connection open through a drain), and IdleTimeout reaps
// abandoned keep-alive connections. ReadTimeout and WriteTimeout stay
// unset on purpose — ?wait long-polls and /stream responses are
// legitimately long-lived, and the handlers bound their own waits.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
