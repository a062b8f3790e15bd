// Command p8d is the long-running simulation service: the experiment
// harness, the fault layer and the content-addressed result cache
// behind an HTTP/JSON API.
//
// Usage:
//
//	p8d                          # serve on :8084, in-memory cache
//	p8d -addr 127.0.0.1:9000     # bind elsewhere
//	p8d -queue 64 -jobworkers 4  # deeper admission queue, 4 parallel jobs
//	p8d -cachedir /var/p8dcache  # persist reports: warm restarts
//	p8d -cachemb 256             # in-memory report cache budget
//	p8d -nocache                 # recompute everything, always
//	p8d -kernelworkers 8         # worker-team size inside host kernels
//	p8d -journal /var/p8djournal # durable jobs: crash recovery on boot
//	p8d -fsync off               # journal without per-record fsync
//
// With -journal, every job lifecycle transition is written ahead to an
// append-only CRC-framed log, and a restarted daemon replays it:
// completed jobs stay listable with their reports served from the
// -cachedir store (pair the two flags), admitted-but-unstarted jobs run
// again, and jobs that were mid-run are retired as "interrupted".
// -fsync always (the default) makes every 202 durable against power
// loss; -fsync off trusts the OS page cache (process-crash-safe only)
// and requires -journal. See API.md "Restart semantics".
//
// Submit a job, poll it, fetch its results:
//
//	curl -s -X POST localhost:8084/v1/jobs \
//	     -d '{"experiments":["table3"],"quick":true}'
//	curl -s 'localhost:8084/v1/jobs/<id>?wait=30s'
//	curl -s  localhost:8084/v1/jobs/<id>/reports
//
// The full endpoint reference — schemas, error codes, the cache-key
// contract, streaming — is API.md at the repository root. The
// operational design (bounded queue, 429 admission control, drain on
// shutdown) is DESIGN.md "Service architecture".
//
// p8d always instruments itself: GET /v1/stats serves the live
// registry (service admission counters, the kernel runtime's shared
// team counters, the memo cache's hit/miss/eviction counters) as JSON,
// or as a Markdown table with ?format=markdown. Per-job experiment
// counters are opt-in per request ("stats": true) and served under
// /v1/jobs/{id}/stats.
//
// On SIGINT or SIGTERM the daemon drains: admission stops (new submits
// answer 503), every already-admitted job runs to completion, the HTTP
// server finishes in-flight responses, and the process exits 0. A
// second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	power8 "repro"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/runreq"
	"repro/internal/service"
)

func main() { os.Exit(run(os.Args, os.Stderr)) }

// run is the daemon: args are the program name and its flags (as in
// os.Args), every diagnostic goes to stderr, and the return value is
// the exit status.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8084", "listen address")
		queue    = fs.Int("queue", 16, "admission queue depth (jobs beyond it are rejected with 429)")
		jworkers = fs.Int("jobworkers", 2, "jobs executing concurrently")
		nocache  = fs.Bool("nocache", false, "disable the content-addressed result cache")
		cacheDir = fs.String("cachedir", "", "persist cached reports to this directory (warm restarts)")
		cacheMB  = fs.Int64("cachemb", 64, "in-memory report cache budget in MiB")
		kernel   = runreq.KernelFlags(fs)
		waitcap  = fs.Duration("waitlimit", 60*time.Second, "upper bound on the ?wait long-poll parameter")
		jdir     = fs.String("journal", "", "write-ahead job journal directory (enables crash recovery)")
		fsyncStr = fs.String("fsync", "always", "journal fsync policy: always | off (off requires -journal)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Reject bad flags up front with one friendly line plus the usage
	// text (exit 2), the same contract as p8repro.
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "p8d:", msg)
		fs.Usage()
		return 2
	}
	switch {
	case *queue < 1:
		return usage(fmt.Sprintf("-queue must be at least 1, got %d", *queue))
	case *jworkers < 1:
		return usage(fmt.Sprintf("-jobworkers must be at least 1, got %d", *jworkers))
	case *cacheMB < 1:
		return usage(fmt.Sprintf("-cachemb must be at least 1, got %d", *cacheMB))
	}
	if err := kernel(); err != nil {
		return usage(err.Error())
	}
	// An explicit -fsync without -journal governs nothing.
	explicit := false
	fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "fsync" })
	if explicit && *jdir == "" {
		return usage("-fsync requires -journal (there is no journal to sync)")
	}
	syncPolicy, ok := map[string]journal.SyncPolicy{"always": journal.SyncAlways, "off": journal.SyncNever}[*fsyncStr]
	if !ok {
		return usage(fmt.Sprintf("-fsync must be \"always\" or \"off\", got %q", *fsyncStr))
	}

	// The service is always observed: the registry is the /v1/stats
	// endpoint, and the shared worker teams and the cache hang their
	// counters under it.
	root := power8.NewStatsRegistry("p8d")
	parallel.InstrumentShared(root)

	var cache *power8.SuiteCache
	if !*nocache {
		var err error
		cache, err = power8.NewSuiteCache(power8.CacheOptions{
			MaxBytes: *cacheMB << 20,
			Dir:      *cacheDir,
		}, root)
		if err != nil {
			fmt.Fprintln(stderr, "p8d:", err)
			return 2
		}
	}

	var jnl *journal.Journal
	var recovery journal.RecoveryInfo
	if *jdir != "" {
		var err error
		jnl, recovery, err = journal.Open(*jdir, journal.Options{Sync: syncPolicy, Stats: root})
		if err != nil {
			fmt.Fprintln(stderr, "p8d: journal:", err)
			return 2
		}
	}

	svc := service.New(service.Options{
		QueueDepth: *queue,
		Workers:    *jworkers,
		Cache:      cache,
		Stats:      root,
		WaitLimit:  *waitcap,
		Journal:    jnl,
	})
	if jnl != nil {
		sum := svc.Recover(recovery.Records)
		fmt.Fprintf(stderr, "p8d: journal %s: replayed %d records from %d segments (%s)\n",
			*jdir, len(recovery.Records), recovery.Segments, sum)
		if recovery.TornTail {
			fmt.Fprintln(stderr, "p8d: journal: torn tail truncated (expected after a crash)")
		}
		if recovery.CorruptStop {
			fmt.Fprintln(stderr, "p8d: journal: WARNING: corruption mid-log; replay stopped at the last trustworthy record")
		}
	}
	svc.Start()

	server := service.NewHTTPServer(*addr, svc.Handler())
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	fmt.Fprintf(stderr, "p8d: serving on %s (queue %d, %d job workers, cache %s)\n",
		*addr, *queue, *jworkers, cacheMode(*nocache, *cacheDir))

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to bind or serve.
		fmt.Fprintln(stderr, "p8d:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(stderr, "p8d: %v — draining (admitted jobs run to completion; signal again to abort)\n", sig)
	}

	// Drain: stop admitting and let the workers finish every admitted
	// job, then let the HTTP server finish in-flight responses. A
	// second signal cuts both short.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sigc
		fmt.Fprintln(stderr, "p8d: second signal — aborting drain")
		cancel()
	}()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "p8d: drain aborted:", err)
		_ = server.Close()
		return 1
	}
	if err := server.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "p8d: server shutdown:", err)
		return 1
	}
	fmt.Fprintln(stderr, "p8d: drained, exiting")
	return 0
}

// cacheMode renders the cache configuration for the startup banner.
func cacheMode(nocache bool, dir string) string {
	switch {
	case nocache:
		return "off"
	case dir != "":
		return "memory+disk:" + dir
	default:
		return "memory"
	}
}
