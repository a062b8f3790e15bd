package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	power8 "repro"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
)

// warmSubsets are the quick paper subsets p8d-mixed primes during setup
// and then requests warm. They leave out the host-timed experiments
// (figures 9-12), whose checks depend on host load.
var warmSubsets = [][]string{
	{"table1", "table2", "figure1"},
	{"table3", "figure3", "table4"},
	{"figure4", "figure5", "table5"},
	{"figure6", "figure7"},
}

// A block is blockLen consecutive jobs: one per warm subset and one cold
// job, in a seeded order, so every run has the same 80/20 mix.
const (
	blockLen    = 5
	coldJob     = blockLen - 1
	traceBlocks = 20 // blocks per half of a traced run: 100 jobs, so p90 has 10 beyond
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobAt returns what job i of a run under seed requests: a warm subset
// index, or coldJob with the job's fault seed, unique within the run.
func jobAt(seed uint64, i int) (kind int, faultSeed uint64) {
	perm := [blockLen]int{0, 1, 2, 3, coldJob}
	h := splitmix64(seed ^ splitmix64(uint64(i/blockLen)+1))
	for j := blockLen - 1; j > 0; j-- {
		h = splitmix64(h)
		k := int(h % uint64(j+1))
		perm[j], perm[k] = perm[k], perm[j]
	}
	kind = perm[i%blockLen]
	if kind == coldJob {
		faultSeed = max(splitmix64(splitmix64(seed)+uint64(i)), 1)
	}
	return kind, faultSeed
}

// jobRequest builds the request body of a job. Each job runs on one
// worker and one DES shard, so the two clients keep at most two threads
// busy between them.
func jobRequest(kind int, faultSeed uint64) service.Request {
	if kind == coldJob {
		return service.Request{Suite: "degradation", Quick: true, FaultSeed: faultSeed, Workers: 1, Shards: 1}
	}
	return service.Request{Experiments: warmSubsets[kind], Quick: true, Workers: 1}
}

// p8dMixed is an in-process p8d: service, journal, disk cache and HTTP
// server in a temporary directory, with one HTTP client per closed-loop
// client.
type p8dMixed struct {
	seed    uint64
	dir     string
	reg     *obs.Registry
	jnl     *journal.Journal
	svc     *service.Service
	srv     *http.Server
	served  chan error
	base    string
	clients [workers]*http.Client
	warm    [][]byte // the first /reports body of each warm subset
	next    atomic.Int64
}

func newP8dMixed(seed uint64) (*p8dMixed, error) {
	dir, err := os.MkdirTemp("", "p8bench-p8d-")
	if err != nil {
		return nil, err
	}
	p := &p8dMixed{seed: seed, dir: dir, reg: obs.NewRegistry("p8d")}
	if err := p.start(); err != nil {
		return nil, errors.Join(err, p.close())
	}
	return p, nil
}

// start boots the service the way cmd/p8d does and primes the warm subsets.
func (p *p8dMixed) start() error {
	cache, err := power8.NewSuiteCache(power8.CacheOptions{Dir: filepath.Join(p.dir, "cache")}, p.reg)
	if err != nil {
		return err
	}
	jnl, info, err := journal.Open(filepath.Join(p.dir, "journal"), journal.Options{Sync: journal.SyncAlways, Stats: p.reg})
	if err != nil {
		return err
	}
	p.jnl = jnl
	p.svc = service.New(service.Options{Workers: workers, Cache: cache, Stats: p.reg, Journal: jnl})
	p.svc.Recover(info.Records)
	p.svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = service.NewHTTPServer(ln.Addr().String(), p.svc.Handler())
	p.served = make(chan error, 1)
	go func() { p.served <- p.srv.Serve(ln) }()
	for i := range p.clients {
		p.clients[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		}
	}
	for k := range warmSubsets {
		res := p.job(p.clients[0], jobRequest(k, 0), nil, 0, 0)
		if res.err != nil {
			return fmt.Errorf("priming subset %d: %w", k, res.err)
		}
		p.warm = append(p.warm, res.body)
	}
	return nil
}

func (p *p8dMixed) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if p.srv != nil {
		errs = append(errs, p.srv.Shutdown(ctx))
		if err := <-p.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if p.svc != nil {
		errs = append(errs, p.svc.Shutdown(ctx))
	}
	for _, c := range p.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if p.jnl != nil {
		errs = append(errs, p.jnl.Close())
	}
	errs = append(errs, os.RemoveAll(p.dir))
	return errors.Join(errs...)
}

// jobResult is one job's round trip: submit, long-poll until done,
// fetch /reports.
type jobResult struct {
	kind                         int
	total, submit, poll, reports time.Duration
	body                         []byte
	err                          error
}

// call makes one request and returns the body, failing on any status
// other than want.
func (p *p8dMixed) call(c *http.Client, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return out, nil
}

// job runs one round trip; with a tracer, each route call is a span
// under parent.
func (p *p8dMixed) job(c *http.Client, r service.Request, t *tracer, parent, traceID int) jobResult {
	var res jobResult
	step := func(name string, fn func() error) (time.Duration, error) {
		if t == nil {
			start := time.Now()
			err := fn()
			return time.Since(start), err
		}
		var err error
		d := t.do(name, parent, traceID, func() { err = fn() })
		return d, err
	}
	reqBody, err := json.Marshal(r)
	if err != nil {
		res.err = err
		return res
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	start := time.Now()
	res.submit, res.err = step("service.submit", func() error {
		b, err := p.call(c, http.MethodPost, "/v1/jobs", reqBody, http.StatusAccepted)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, &job)
	})
	if res.err != nil {
		return res
	}
	res.poll, res.err = step("service.poll", func() error {
		b, err := p.call(c, http.MethodGet, "/v1/jobs/"+job.ID+"?wait=60s", nil, http.StatusOK)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &job); err != nil {
			return err
		}
		if job.State != string(service.Done) {
			return fmt.Errorf("job %s is %s after the long poll", job.ID, job.State)
		}
		return nil
	})
	if res.err != nil {
		return res
	}
	res.reports, res.err = step("service.reports", func() (err error) {
		res.body, err = p.call(c, http.MethodGet, "/v1/jobs/"+job.ID+"/reports", nil, http.StatusOK)
		return err
	})
	res.total = time.Since(start)
	return res
}

// runJob runs job i of the seeded sequence and checks its /reports body:
// a warm body must equal the subset's first body byte for byte, and a
// cold body must decode to passing reports.
func (p *p8dMixed) runJob(c *http.Client, i int, t *tracer, parent, traceID int) jobResult {
	kind, faultSeed := jobAt(p.seed, i)
	res := p.job(c, jobRequest(kind, faultSeed), t, parent, traceID)
	res.kind = kind
	switch {
	case res.err != nil:
	case kind != coldJob:
		if !bytes.Equal(res.body, p.warm[kind]) {
			res.err = fmt.Errorf("warm subset %d: /reports body differs from the first one", kind)
		}
	default:
		var reps []*power8.Report
		if err := json.Unmarshal(res.body, &reps); err != nil {
			res.err = fmt.Errorf("cold job: %w", err)
		} else if len(reps) != len(power8.FaultExperiments()) {
			res.err = fmt.Errorf("cold job: %d reports", len(reps))
		} else {
			res.err = checkReports(reps)
		}
	}
	if res.err != nil {
		res.err = fmt.Errorf("job %d: %w", i, res.err)
	}
	return res
}

func (p *p8dMixed) nextJob() int { return int(p.next.Add(1) - 1) }

// measure runs the closed loop: every client sends its next job only
// after the previous one's reports arrive.
func (p *p8dMixed) measure(d time.Duration) measurement {
	results := make([][]jobResult, len(p.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Since(start) < d; first = false {
				results[c] = append(results[c], p.runJob(p.clients[c], p.nextJob(), nil, 0, 0))
			}
		}(c)
	}
	wg.Wait()
	m := measurement{busy: time.Since(start)}
	var warm, cold []float64
	for _, rs := range results {
		for _, r := range rs {
			m.latencies = append(m.latencies, r.total)
			if r.err != nil {
				m.failures = append(m.failures, r.err)
			}
			if r.kind == coldJob {
				cold = append(cold, ms(r.total))
			} else {
				warm = append(warm, ms(r.total))
			}
		}
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"warm_job", warm}, {"cold_job", cold}} {
		m.notes = append(m.notes, fmt.Sprintf("%s_p50_ms %.6g ms (n=%d); %s", c.name, median(c.xs), len(c.xs), tailNote(c.name, c.xs)))
	}
	return m
}

// trace alternates traceBlocks untraced blocks with traceBlocks traced
// ones, from one client, so both see the same host spells.
func (p *p8dMixed) trace(t *tracer) (traceRun, error) {
	run := traceRun{differences: "one client instead of two, so jobs never overlap; " +
		"traced blocks draw fresh cold jobs, not the reference blocks' ones"}
	c := p.clients[0]
	var before, after runtime.MemStats
	var submit, poll, reports []float64
	bodyBytes := 0
	traced := obsView{counters: map[string]float64{}}
	for b := 0; b < traceBlocks; b++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for j := 0; j < blockLen; j++ {
			run.check(p.runJob(c, p.nextJob(), nil, 0, 0).err)
		}
		run.ref = append(run.ref, time.Since(start))
		runtime.ReadMemStats(&after)
		run.allocs += float64(after.Mallocs-before.Mallocs) / traceBlocks

		base := viewOf(p.reg.Snapshot())
		root := t.start(unitSpan, 0, b+1)
		for j := 0; j < blockLen; j++ {
			id := t.start("p8d.job", root, b+1)
			r := p.runJob(c, p.nextJob(), t, id, b+1)
			t.end(id)
			run.check(r.err)
			submit = append(submit, ms(r.submit))
			poll = append(poll, ms(r.poll))
			reports = append(reports, ms(r.reports))
			bodyBytes += len(r.body)
		}
		t.end(root)
		run.units = append(run.units, root)
		now := viewOf(p.reg.Snapshot())
		for k, v := range now.since(base).counters {
			traced.counters[k] += v
		}
		traced.gauges, traced.dists = now.gauges, now.dists
	}
	layer := obsLayer(traced)
	var err error
	for _, route := range []struct {
		name string
		xs   []float64
	}{{"submit", submit}, {"poll", poll}, {"reports", reports}} {
		layer["service."+route.name+"_ms_p50"] = median(route.xs)
		if layer["service."+route.name+"_ms_p90"], err = percentile(route.xs, 0.90); err != nil {
			return run, fmt.Errorf("service.%s: %w", route.name, err)
		}
	}
	layer["service.reports_bytes"] = float64(bodyBytes) / float64(len(submit))
	run.layer = layer
	return run, nil
}
