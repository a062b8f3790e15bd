package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	power8 "repro"
)

// newTestServer builds a service + httptest server; the cleanup drains
// the service and closes the server.
func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, ts
}

// post submits a request body and returns the status code and body.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

// get fetches a path and returns the status code and body.
func get(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

// submitAndWait submits one request and long-polls it to completion,
// returning the finished job view.
func submitAndWait(t *testing.T, url, body string) jobView {
	t.Helper()
	code, b := post(t, url, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202; body: %s", code, b)
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	for i := 0; i < 60; i++ {
		code, b = get(t, url, "/v1/jobs/"+v.ID+"?wait=10s")
		if code != http.StatusOK {
			t.Fatalf("poll: got %d; body: %s", code, b)
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("poll body: %v", err)
		}
		if v.State == Done {
			return v
		}
	}
	t.Fatalf("job %s never finished (state %s)", v.ID, v.State)
	return v
}

// TestSubmitValidation drives every 400 path of POST /v1/jobs and pins
// the messages clients see — notably that a bad fault plan surfaces the
// fault package's own friendly diagnostics, not a generic error.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"malformed json", `{`, "bad request body"},
		{"unknown field", `{"bogus": 1}`, "bad request body"},
		{"unknown spec", `{"spec": "z15"}`, `unknown spec "z15"`},
		{"unknown suite", `{"suite": "microbench"}`, `unknown suite "microbench"`},
		{"unknown experiment", `{"experiments": ["table99"]}`, `unknown experiment "table99"`},
		{"duplicate experiment", `{"experiments": ["table3", "table3"]}`, `listed twice`},
		{"bad fault grammar", `{"faults": "meteor:3"}`, `unknown kind "meteor"`},
		{"fault validate", `{"faults": "guard:99:2"}`, "chip 99 out of range"},
		{"fault plan on paper suite", `{"suite": "paper", "faults": "worst-day"}`, "degradation"},
		{"faults and faultseed", `{"faults": "worst-day", "faultseed": 7}`, "mutually exclusive"},
		{"bad shards", `{"shards": 3}`, "does not divide"},
		{"negative workers", `{"workers": -1}`, "workers must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts.URL, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("got %d, want 400; body: %s", code, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error envelope: %v (body: %s)", err, body)
			}
			if e.Status != http.StatusBadRequest {
				t.Errorf("envelope status = %d, want 400", e.Status)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

// TestSubmitBodyTooLarge: a body past the cap is answered 413 in the
// error envelope, and nothing is admitted.
func TestSubmitBodyTooLarge(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	body := `{"faults": "` + strings.Repeat("x", maxRequestBytes) + `"}`
	code, b := post(t, ts.URL, body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("got %d, want 413; body: %s", code, b)
	}
	var e errorBody
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("error envelope: %v (body: %s)", err, b)
	}
	if e.Status != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "exceeds") {
		t.Errorf("envelope = %+v", e)
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("%d jobs admitted from an oversized body, want 0", n)
	}
}

// TestUnknownJob: every job-scoped endpoint answers 404 with the error
// envelope for an id that was never issued.
func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{
		"/v1/jobs/j999-deadbeef",
		"/v1/jobs/j999-deadbeef/reports",
		"/v1/jobs/j999-deadbeef/stream",
		"/v1/jobs/j999-deadbeef/stats",
	} {
		code, body := get(t, ts.URL, path)
		if code != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404; body: %s", path, code, body)
		}
		if !strings.Contains(string(body), "unknown job") {
			t.Errorf("%s: body %q does not mention the unknown job", path, body)
		}
	}
}

// TestQueueFull: with no workers started and a one-deep queue, the
// first submit is admitted and the second is rejected with 429 and a
// Retry-After header — admission control, not a hung connection.
func TestQueueFull(t *testing.T) {
	svc := New(Options{QueueDepth: 1})
	// Deliberately not started: nothing drains the queue, so the test
	// is deterministic.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, body := post(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202; body: %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["table1"],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestReportsBeforeDone: a queued job's reports endpoint answers 409
// (not 404, not an empty body) until the job finishes.
func TestReportsBeforeDone(t *testing.T) {
	svc := New(Options{}) // not started: the job stays queued
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, body := post(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d; body: %s", code, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts.URL, "/v1/jobs/"+v.ID+"/reports")
	if code != http.StatusConflict {
		t.Fatalf("reports while queued: got %d, want 409; body: %s", code, body)
	}
}

// TestWarmVsColdByteIdentity is the service-level restatement of the
// PR-7 contract: two identical uninstrumented jobs against one cache
// produce byte-identical /reports bodies, the second served warm. The
// two jobs share the fingerprint half of their ids and the full
// request fingerprint.
func TestWarmVsColdByteIdentity(t *testing.T) {
	cache, err := power8.NewSuiteCache(power8.CacheOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Cache: cache, Workers: 1})

	const body = `{"experiments":["table1","table3"],"quick":true}`
	cold := submitAndWait(t, ts.URL, body)
	warm := submitAndWait(t, ts.URL, body)

	if cold.Fingerprint != warm.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", cold.Fingerprint, warm.Fingerprint)
	}
	if cold.ID == warm.ID {
		t.Fatalf("distinct submissions share a job id %s", cold.ID)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != 2 {
		t.Errorf("cold job: hits=%d misses=%d, want 0/2", cold.CacheHits, cold.CacheMisses)
	}
	if warm.CacheHits != 2 || warm.CacheMisses != 0 {
		t.Errorf("warm job: hits=%d misses=%d, want 2/0", warm.CacheHits, warm.CacheMisses)
	}
	for i, hint := range warm.WarmHint {
		if !hint {
			t.Errorf("warm job: warm_hint[%d] = false, want true", i)
		}
	}

	_, coldBytes := get(t, ts.URL, "/v1/jobs/"+cold.ID+"/reports")
	_, warmBytes := get(t, ts.URL, "/v1/jobs/"+warm.ID+"/reports")
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Errorf("warm /reports body differs from cold (%d vs %d bytes)", len(coldBytes), len(warmBytes))
	}
}

// TestStream: the NDJSON stream yields one line per experiment in
// suite order plus the done trailer, regardless of completion order.
func TestStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	code, body := post(t, ts.URL, `{"experiments":["table1","table2"],"quick":true,"workers":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d; body: %s", code, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("stream content type %q", ct)
	}
	var ids []string
	sawTrailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			ID    string `json:"id"`
			State State  `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if line.State == Done {
			sawTrailer = true
			continue
		}
		ids = append(ids, line.ID)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTrailer {
		t.Error("stream ended without the done trailer")
	}
	if want := []string{"table1", "table2"}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("stream ids = %v, want %v", ids, want)
	}
}

// TestDrainOnShutdown: Shutdown finishes every admitted job before
// returning, and a post-drain submit is turned away with 503. Run
// under -race this also exercises the queue/worker/job-state fences.
func TestDrainOnShutdown(t *testing.T) {
	svc := New(Options{QueueDepth: 8, Workers: 2})
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var views []jobView
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
			if code != http.StatusAccepted {
				t.Errorf("submit: got %d; body: %s", code, body)
				return
			}
			var v jobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			views = append(views, v)
			mu.Unlock()
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for _, v := range views {
		job, ok := svc.Job(v.ID)
		if !ok {
			t.Fatalf("job %s vanished", v.ID)
		}
		if state, _ := job.watch(); state != Done {
			t.Errorf("job %s drained to %q, want done", v.ID, state)
		}
	}

	code, body := post(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: got %d, want 503; body: %s", code, body)
	}
	code, body = get(t, ts.URL, "/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz after drain: code %d body %s", code, body)
	}
}

// TestCatalog: the catalog enumerates both specs, both suites with
// their experiment counts, and the canned fault plans.
func TestCatalog(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := get(t, ts.URL, "/v1/catalog")
	if code != http.StatusOK {
		t.Fatalf("catalog: got %d", code)
	}
	var cat catalogView
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cat.Specs) != fmt.Sprint([]string{"e870", "max-smp"}) {
		t.Errorf("specs = %v", cat.Specs)
	}
	counts := map[string]int{}
	for _, s := range cat.Suites {
		counts[s.Name] = len(s.Experiments)
	}
	if counts["paper"] != 18 || counts["degradation"] != 4 {
		t.Errorf("suite sizes = %v, want paper:18 degradation:4", counts)
	}
	if len(cat.CannedFaultPlans) == 0 {
		t.Error("no canned fault plans in catalog")
	}
}

// TestDegradationJob: a faulted job runs the degradation suite against
// a machine derived through the validated plan; a seeded plan is
// normalized into its event-grammar spelling.
func TestDegradationJob(t *testing.T) {
	if testing.Short() {
		t.Skip("degradation sweep is not short")
	}
	_, ts := newTestServer(t, Options{})
	v := submitAndWait(t, ts.URL, `{"faults":"guarded-cores","experiments":["deg-cores"],"quick":true}`)
	if v.Request.Suite != "degradation" {
		t.Errorf("suite = %q, want degradation (implied by faults)", v.Request.Suite)
	}
	code, body := get(t, ts.URL, "/v1/jobs/"+v.ID+"/reports")
	if code != http.StatusOK {
		t.Fatalf("reports: got %d", code)
	}
	var reports []*power8.Report
	if err := json.Unmarshal(body, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].ID != "deg-cores" {
		t.Fatalf("reports = %d entries", len(reports))
	}
	if reports[0].Failed() {
		t.Errorf("deg-cores failed: %s", reports[0].Err)
	}
}

// TestStatsEndpoints: /v1/stats serves the service registry (counting
// its own request), and an instrumented job serves per-experiment
// counters while an uninstrumented one serves the empty snapshot.
func TestStatsEndpoints(t *testing.T) {
	root := power8.NewStatsRegistry("p8d-test")
	_, ts := newTestServer(t, Options{Stats: root, Workers: 1})

	v := submitAndWait(t, ts.URL, `{"experiments":["table1"],"quick":true,"stats":true}`)
	code, body := get(t, ts.URL, "/v1/jobs/"+v.ID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("job stats: got %d", code)
	}
	if !strings.Contains(string(body), "table1") {
		t.Errorf("instrumented job stats lack the experiment scope: %s", body)
	}

	plain := submitAndWait(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
	code, body = get(t, ts.URL, "/v1/jobs/"+plain.ID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("uninstrumented job stats: got %d", code)
	}
	if strings.Contains(string(body), "table1") {
		t.Errorf("uninstrumented job stats should be empty, got: %s", body)
	}

	code, body = get(t, ts.URL, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: got %d", code)
	}
	if !strings.Contains(string(body), "jobs_submitted") {
		t.Errorf("/v1/stats lacks service counters: %s", body)
	}
}

// TestStatsBypassesCache: a stats job must re-execute even when warm —
// the counters describe the execution that actually happened — so its
// provenance is all-miss.
func TestStatsBypassesCache(t *testing.T) {
	cache, err := power8.NewSuiteCache(power8.CacheOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Cache: cache, Workers: 1})

	_ = submitAndWait(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
	observed := submitAndWait(t, ts.URL, `{"experiments":["table1"],"quick":true,"stats":true}`)
	if observed.CacheHits != 0 {
		t.Errorf("stats job reported %d cache hits, want 0 (bypass)", observed.CacheHits)
	}
}

// watch returns the job's current state and a channel that closes on
// the next change; poll loops select on it alongside their deadline.
func (j *Job) watch() (State, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.changed
}
