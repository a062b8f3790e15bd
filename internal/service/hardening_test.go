package service

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// quickReq is the cheapest useful request: one quick experiment.
func quickReq() Request {
	return Request{Experiments: []string{"table1"}, Quick: true}
}

// TestSubmitIDAssignedBeforeQueue pins the publication order fixed in
// the interprocedural-lint PR: the job's ID must be written before the
// channel send hands the job to the worker pool, and a queue-full
// rejection must roll the sequence number back so admission numbering
// stays dense. The worker below reads job.ID concurrently with Submit;
// under -race the old write-after-publish ordering fails here.
func TestSubmitIDAssignedBeforeQueue(t *testing.T) {
	svc := New(Options{QueueDepth: 1, Workers: 1})

	// Fill the queue before starting workers, then overflow it.
	first, err := svc.Submit(quickReq())
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if first.ID != fmt.Sprintf("j1-%s", first.Fingerprint.Short()) {
		t.Fatalf("first job ID = %q, want j1-%s", first.ID, first.Fingerprint.Short())
	}
	if _, err := svc.Submit(quickReq()); err == nil {
		t.Fatal("submit into a full queue succeeded; want 429")
	}

	// The rejected submit must not consume a sequence number: drain the
	// queue and the next admission is j2.
	svc.Start()
	waitDone(t, first)
	second, err := svc.Submit(quickReq())
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if second.ID != fmt.Sprintf("j2-%s", second.Fingerprint.Short()) {
		t.Fatalf("post-rejection job ID = %q, want j2-%s (429 must roll back seq)", second.ID, second.Fingerprint.Short())
	}
	waitDone(t, second)
	shutdownNow(t, svc)

	// Every admitted job carries a complete ID in the index.
	for _, j := range svc.Jobs() {
		if j.ID == "" {
			t.Fatal("indexed job with empty ID")
		}
	}
}

// TestShutdownDrainsUnderConcurrentSubmits races a herd of submitters
// against Shutdown: every job that was admitted (Submit returned nil)
// must be Done when Shutdown returns — an accepted job is a promise —
// and every rejection must be the typed draining/full error, never a
// panic or a send on the closed queue. Run with -race.
func TestShutdownDrainsUnderConcurrentSubmits(t *testing.T) {
	svc := New(Options{QueueDepth: 8, Workers: 2})
	svc.Start()

	var mu sync.Mutex
	var admitted []*Job
	// Seed a few synchronous admissions so there is guaranteed queued
	// work when draining begins, whatever the goroutine schedule does.
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(quickReq())
		if err != nil {
			t.Fatalf("seed submit %d: %v", i, err)
		}
		admitted = append(admitted, j)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 4; k++ {
				j, err := svc.Submit(quickReq())
				if err != nil {
					continue // 429 or 503: both legal under the race
				}
				mu.Lock()
				admitted = append(admitted, j)
				mu.Unlock()
			}
		}()
	}
	close(start)
	// Begin draining while submitters are still running.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if !svc.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, j := range admitted {
		st, _ := j.watch()
		if st != Done {
			t.Fatalf("admitted job %s is %q after Shutdown returned; want done", j.ID, st)
		}
	}
}

// TestJobStatsRegistryConcurrentReads hammers a running stats job's
// detached obs registry from reader goroutines while the worker writes
// counters into it — the per-job registry contract audited in the
// interprocedural-lint PR. Run with -race.
func TestJobStatsRegistryConcurrentReads(t *testing.T) {
	svc := New(Options{QueueDepth: 4, Workers: 1})
	svc.Start()
	req := quickReq()
	req.Stats = true
	job, err := svc.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.reg == nil {
		t.Fatal("stats job has no registry")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap := job.reg.Snapshot(); snap.Name != "job" {
					t.Errorf("snapshot from live job registry named %q, want job", snap.Name)
					return
				}
			}
		}()
	}
	waitDone(t, job)
	close(stop)
	wg.Wait()
	shutdownNow(t, svc)
	final := job.reg.Snapshot()
	if len(final.Children) == 0 && len(final.Counters) == 0 {
		t.Fatal("finished stats job registry snapshot is empty")
	}
}

// waitDone blocks until the job reaches Done.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// shutdownNow drains the service with a generous deadline.
func shutdownNow(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDrainWithStuckClient: a slow-loris client that opens a connection
// and never finishes its request headers must not pin a graceful drain.
// ReadHeaderTimeout evicts the reader, the connection closes server-side,
// and Shutdown completes. Before the hardened NewHTTPServer this test
// hangs until the Shutdown context expires.
func TestDrainWithStuckClient(t *testing.T) {
	svc := New(Options{QueueDepth: 2, Workers: 1})
	svc.Start()
	defer func() {
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Errorf("service shutdown: %v", err)
		}
	}()

	srv := NewHTTPServer("127.0.0.1:0", svc.Handler())
	// Shrink the eviction window so the test is quick; the production
	// default is pinned by TestNewHTTPServerTimeouts.
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	accepted := make(chan struct{}, 4)
	srv.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted <- struct{}{}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request: request line and one header, never the
	// terminating blank line.
	if _, err := conn.Write([]byte("GET /v1/jobs HTTP/1.1\r\nHost: p8d\r\n")); err != nil {
		t.Fatal(err)
	}
	<-accepted // the server is now reading (and timing) our headers

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with stuck client: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drain took %v; a stuck client should be evicted in ~ReadHeaderTimeout", elapsed)
	}
	// The server hung up on the stuck client, not the other way round.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("stuck client read after eviction: %v (want clean server-side close)", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
