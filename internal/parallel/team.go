package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the kernel runtime: a persistent worker team whose
// goroutines are created once and reused across calls, plus a
// parallel-for primitive with two schedules. The host kernels (SpMV,
// Jaccard, Hartree-Fock, stencil, FFT, STREAM) iterate thousands of
// times — PageRank calls SpMV once per power iteration, SCF rebuilds
// the Fock matrix once per cycle — so respawning a full goroutine set
// per call puts the spawn/park cost on every iteration. A Team pays it
// once.
//
// Two loop shapes are offered because the paper's workloads need both:
//
//   - For/ParallelForWorker: workers pull fixed-size index chunks from
//     an atomic cursor. Hub-heavy rows of a scale-free matrix (the
//     Figure 12 imbalance) land in some chunks and not others; pulling
//     rebalances them automatically, like OpenMP's schedule(dynamic).
//     Every host kernel's main loop runs this way.
//   - StaticFor: a fixed contiguous pre-split, one range per worker.
//     The assignment depends only on (n, workers), so per-worker
//     partial reductions merge in a deterministic order and results
//     are bit-reproducible run to run.

// defaultWorkers overrides the GOMAXPROCS default when positive (the
// -kernelworkers knob).
var defaultWorkers atomic.Int64

// Workers resolves a kernel's threads argument: positive values pass
// through; otherwise the process-wide default applies (SetDefaultWorkers
// if set, else one worker per available CPU).
func Workers(threads int) int {
	if threads > 0 {
		return threads
	}
	if v := defaultWorkers.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers fixes the worker count kernels use when called with
// threads <= 0. n <= 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// grainChunks is the automatic grain's target of dynamic chunks per
// worker: more chunks balance better, fewer cost less scheduling.
const grainChunks = 8

// autoGrain picks a dynamic chunk size giving each worker about
// grainChunks chunks to pull.
func autoGrain(n, workers int) int {
	g := n / (workers * grainChunks)
	if g < 1 {
		g = 1
	}
	return g
}

// Team is a persistent set of worker goroutines that execute
// parallel-for loops. The goroutines are created by NewTeam and live
// until Close; running a loop spawns nothing. A Team executes one loop
// at a time — a concurrent call from another goroutine is a programming
// error and panics (use the package-level For/StaticFor helpers, which
// serialize on a shared team, when callers may overlap).
//
// Loop bodies must not invoke the same Team (or, for the shared
// helpers, any package-level parallel-for): the outer loop holds the
// team until its body returns, so a nested call deadlocks.
type Team struct {
	workers int
	chans   []chan *teamJob
	job     teamJob // reused across calls: steady state allocates nothing
	busy    atomic.Bool
	closed  atomic.Bool
	stats   *teamStats // nil when uninstrumented (see Instrument)
}

// teamJob describes one parallel-for. With bounds == nil the loop is
// dynamic: workers pull [next, next+grain) ranges from the atomic
// cursor. With bounds set the loop is static: worker w runs
// [bounds[w], bounds[w+1]).
type teamJob struct {
	n      int
	grain  int
	next   atomic.Int64
	bounds []int
	body   func(worker, lo, hi int)
	wg     sync.WaitGroup
	// Per-worker tallies for the current job, allocated once by
	// Instrument and reset per dispatch; nil when uninstrumented, which
	// reduces the whole instrumentation to one branch per chunk pull.
	// Each worker writes only its own slot; wg.Wait orders the flush.
	chunks  []uint64
	items   []uint64
	startNs int64
	firstNs atomic.Int64 // dispatch-to-first-chunk; -1 until a worker pulls
}

// NewTeam starts a team of `workers` goroutines (workers must be
// positive). A one-worker team spawns no goroutines at all and runs
// loops inline.
func NewTeam(workers int) *Team {
	if workers <= 0 {
		panic(fmt.Sprintf("parallel: team needs a positive worker count, got %d", workers))
	}
	t := &Team{workers: workers}
	if workers == 1 {
		return t
	}
	t.chans = make([]chan *teamJob, workers)
	for w := range t.chans {
		t.chans[w] = make(chan *teamJob, 1)
		go t.workerLoop(w)
	}
	return t
}

// Close terminates the worker goroutines. The team must be idle; using
// it afterwards panics. Close must not race with a running loop.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	for _, c := range t.chans {
		close(c)
	}
}

func (t *Team) workerLoop(w int) {
	for j := range t.chans[w] {
		j.run(w)
		j.wg.Done()
	}
}

// run is the per-worker pull loop: static jobs execute their one
// bounded range, dynamic jobs pull grain-sized chunks off the shared
// cursor until the range is exhausted. Its handoff cost is pinned by
// BenchmarkParallelForTeam and BenchmarkStaticForTeam in
// team_bench_test.go.
//
//p8:hotpath
func (j *teamJob) run(w int) {
	instrumented := j.chunks != nil
	if j.bounds != nil {
		if lo, hi := j.bounds[w], j.bounds[w+1]; lo < hi {
			if instrumented {
				j.noteChunk(w, hi-lo)
			}
			j.body(w, lo, hi) //p8:allow hotpath: the body IS the team's payload — dispatch is necessarily indirect; hot kernels annotate their own bodies
		}
		return
	}
	g := int64(j.grain)
	n := int64(j.n)
	for {
		start := j.next.Add(g) - g //p8:allow hotpath: the shared chunk cursor is the one designed-in atomic — one fetch-add per grain-sized chunk, amortized across the whole chunk
		if start >= n {
			return
		}
		end := int(start) + j.grain
		if end > j.n {
			end = j.n
		}
		if instrumented {
			j.noteChunk(w, end-int(start))
		}
		j.body(w, int(start), end) //p8:allow hotpath: the body IS the team's payload — dispatch is necessarily indirect; hot kernels annotate their own bodies
	}
}

// noteChunk tallies one pulled chunk. The first pull across all workers
// also stamps the dispatch-to-first-chunk latency (the handoff cost a
// kernel pays before any useful work starts).
func (j *teamJob) noteChunk(w, items int) {
	if j.firstNs.Load() < 0 {
		//p8:allow determinism: the dispatch-to-first-chunk stamp is obs-only timing provenance — it lands in counter snapshots, never in simulated state or report fingerprints
		j.firstNs.CompareAndSwap(-1, time.Now().UnixNano()-j.startNs) //p8:allow hotpath: instrumented dispatches only — one CAS+stamp on the first chunk pull, then the branch above short-circuits
	}
	j.chunks[w]++
	j.items[w] += uint64(items)
}

// ParallelForWorker runs body over [0, n) with dynamic chunking: workers
// pull `grain`-sized index ranges until the range is exhausted. grain <=
// 0 selects an automatic grain (~8 chunks per worker). Chunks are
// processed in ascending order when the team has one worker, so the
// sequential case is deterministic. The body receives the worker index
// (0-based, below the team size), so callers can keep contention-free
// per-worker accumulators. Chunk-to-worker assignment is first-come,
// so the partition of work across accumulators is not deterministic —
// use StaticFor where merged reduction order must be reproducible.
func (t *Team) ParallelForWorker(n, grain int, body func(worker, lo, hi int)) {
	if grain <= 0 {
		grain = autoGrain(n, t.workers)
	}
	t.dispatch(n, grain, nil, body)
}

// StaticFor runs body over [0, n) split into one contiguous near-equal
// range per worker. Worker w always receives the same range for a given
// (n, workers), so per-worker partials merge deterministically. Workers
// with an empty range do not run.
func (t *Team) StaticFor(n int, body func(worker, lo, hi int)) {
	t.dispatch(n, 0, evenBounds(n, t.workers), body)
}

// dispatch publishes one job to the team and waits for it to drain. It
// runs once per parallel loop — not per item — so the runtime checks
// and instrumentation stamps below are amortized over the whole loop;
// each carries its own //p8:allow. Dispatch latency is pinned by
// BenchmarkParallelForTeam and the dispatch_to_first_chunk_ns counter.
//
//p8:hotpath
func (t *Team) dispatch(n, grain int, bounds []int, body func(worker, lo, hi int)) {
	if t.closed.Load() { //p8:allow hotpath: use-after-Close check, once per loop
		panic("parallel: use of a closed Team")
	}
	if !t.busy.CompareAndSwap(false, true) { //p8:allow hotpath: concurrent-dispatch check, once per loop
		panic("parallel: concurrent parallel-for calls on one Team (a Team runs one loop at a time; use the package-level helpers for overlapping callers)")
	}
	defer t.busy.Store(false) //p8:allow hotpath: releases the dispatch slot, once per loop
	st := t.stats
	if st != nil {
		st.dispatches.Inc()
	}
	if bounds == nil {
		if n <= 0 {
			return
		}
		// Inline when one worker (or one chunk) covers the whole range:
		// no cross-goroutine handoff, deterministic ascending order.
		if t.workers == 1 || n <= grain {
			body(0, 0, n) //p8:allow hotpath: inline single-worker dispatch of the caller-supplied body — necessarily indirect; hot kernels annotate their own bodies
			if st != nil {
				st.recordInline(1, uint64(n))
			}
			return
		}
	} else if t.workers == 1 {
		var parts, items uint64
		for p := 0; p+1 < len(bounds); p++ {
			if bounds[p] < bounds[p+1] {
				body(p, bounds[p], bounds[p+1]) //p8:allow hotpath: inline single-worker dispatch of the caller-supplied body — necessarily indirect; hot kernels annotate their own bodies
				parts++
				items += uint64(bounds[p+1] - bounds[p])
			}
		}
		if st != nil {
			st.recordInline(parts, items)
		}
		return
	}
	// Wake only as many workers as there are chunks (a static split
	// has one range per worker): a worker with nothing to pull would
	// only add handoff latency.
	wake := t.workers
	if bounds == nil {
		wake = min(wake, (n+grain-1)/grain)
	}
	j := &t.job
	j.n, j.grain, j.bounds, j.body = n, grain, bounds, body
	j.next.Store(0) //p8:allow hotpath: resets the chunk cursor the workers will fetch-add, once per loop
	if st != nil {
		for w := range j.chunks {
			j.chunks[w], j.items[w] = 0, 0
		}
		j.firstNs.Store(-1) //p8:allow hotpath: instrumented dispatches only, once per loop
		//p8:allow determinism: wall time here only seeds the obs handoff-latency stamp; it never reaches simulated state or report fingerprints
		j.startNs = time.Now().UnixNano() //p8:allow hotpath: instrumented dispatches only — the dispatch-to-first-chunk stamp needs wall time
	}
	j.wg.Add(wake)
	for w := 0; w < wake; w++ {
		t.chans[w] <- j
	}
	j.wg.Wait()
	if st != nil {
		st.flush(j, wake)
	}
	j.body = nil
	j.bounds = nil
}

// evenBounds splits [0, n) into parts near-equal contiguous ranges.
func evenBounds(n, parts int) []int {
	b := make([]int, parts+1)
	chunk := (n + parts - 1) / parts
	for p := 1; p < parts; p++ {
		v := p * chunk
		if v > n {
			v = n
		}
		b[p] = v
	}
	b[parts] = n
	return b
}

// sharedTeam is one process-wide team plus the mutex that serializes
// submissions from overlapping callers (the experiment harness runs
// whole experiments concurrently; their kernels take turns on the team
// instead of oversubscribing the machine with spawned goroutine sets).
type sharedTeam struct {
	mu sync.Mutex
	t  *Team
}

var (
	sharedMu    sync.Mutex
	sharedTeams = map[int]*sharedTeam{}
)

// sharedFor returns the process-wide team for a worker count, creating
// it on first use. Teams persist for the life of the process (the set of
// distinct worker counts is small).
func sharedFor(workers int) *sharedTeam {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	st := sharedTeams[workers]
	if st == nil {
		st = &sharedTeam{t: NewTeam(workers)}
		st.t.Instrument(sharedObs) // no-op unless InstrumentShared ran
		sharedTeams[workers] = st
	}
	return st
}

// For runs body over [0, n) with dynamic chunking on the process-wide
// team for the resolved worker count (see Workers). Safe for concurrent
// use: overlapping loops on the same worker count serialize. Bodies
// must not call back into the package-level parallel-for helpers.
func For(workers, n, grain int, body func(lo, hi int)) {
	ForWorker(workers, n, grain, func(_, lo, hi int) { body(lo, hi) })
}

// ForWorker is For with the worker index passed to the body.
func ForWorker(workers, n, grain int, body func(worker, lo, hi int)) {
	workers = Workers(workers)
	if workers == 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	st := sharedFor(workers)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.t.ParallelForWorker(n, grain, body)
}

// StaticFor runs body over [0, n) with a deterministic even pre-split
// on the process-wide team (see Team.StaticFor).
func StaticFor(workers, n int, body func(worker, lo, hi int)) {
	workers = Workers(workers)
	if workers == 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	st := sharedFor(workers)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.t.StaticFor(n, body)
}
