package parallel

import (
	"fmt"

	"repro/internal/obs"
)

// This file publishes the kernel runtime's counters. A team accumulates
// per-worker tallies in plain slots while a job runs (each worker owns
// its slot) and flushes them into the registry once per dispatch, after
// the job's WaitGroup settles — so the pull loop pays one extra branch
// per chunk and zero atomics beyond the cursor it already had.
//
// Counter taxonomy under the scope given to Instrument (see DESIGN.md
// "Observability"):
//
//	team_w<N>/dispatches            parallel-for calls on the N-worker team
//	team_w<N>/worker<i>/chunks      chunks worker i pulled (or ran, static)
//	team_w<N>/worker<i>/items       loop indices worker i covered
//	team_w<N>/imbalance_permille    distribution of max/mean items per
//	                                dispatch (1000 = perfectly balanced);
//	                                dynamic fan-out dispatches only
//	team_w<N>/first_chunk_ns        distribution of dispatch-to-first-chunk
//	                                handoff latency; fan-out dispatches only

// teamStats holds one team's registry handles, resolved once at
// Instrument time so the flush path does no map lookups.
type teamStats struct {
	dispatches   *obs.Counter
	imbalance    *obs.Distribution
	firstChunk   *obs.Distribution
	workerChunks []*obs.Counter
	workerItems  []*obs.Counter
}

// Instrument publishes the team's scheduling counters into a
// "team_w<N>" child of reg (N = the worker count). Call it while the
// team is idle — typically right after NewTeam; instrumenting a team
// with a loop in flight is a race. A nil reg leaves the team
// uninstrumented (the default): the hot path then costs a single
// predicted branch per chunk.
func (t *Team) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	scope := reg.Child(fmt.Sprintf("team_w%d", t.workers))
	st := &teamStats{
		dispatches: scope.Counter("dispatches"),
		imbalance:  scope.Distribution("imbalance_permille"),
		firstChunk: scope.Distribution("first_chunk_ns"),
	}
	for w := 0; w < t.workers; w++ {
		ws := scope.Child(fmt.Sprintf("worker%d", w))
		st.workerChunks = append(st.workerChunks, ws.Counter("chunks"))
		st.workerItems = append(st.workerItems, ws.Counter("items"))
	}
	t.job.chunks = make([]uint64, t.workers)
	t.job.items = make([]uint64, t.workers)
	t.stats = st
}

// recordInline tallies a dispatch the team ran on the calling goroutine
// (one worker, or a range small enough for a single chunk). There is no
// handoff and no sharing, so only worker 0's chunk/item counters move.
func (st *teamStats) recordInline(chunks, items uint64) {
	st.workerChunks[0].Add(chunks)
	st.workerItems[0].Add(items)
}

// flush moves one finished job's tallies into the registry. It runs on
// the dispatching goroutine after wg.Wait, so the workers' slot writes
// are visible and nothing races.
func (st *teamStats) flush(j *teamJob, wake int) {
	var total, max uint64
	for w := range j.chunks {
		if j.chunks[w] == 0 {
			continue
		}
		st.workerChunks[w].Add(j.chunks[w])
		st.workerItems[w].Add(j.items[w])
		total += j.items[w]
		if j.items[w] > max {
			max = j.items[w]
		}
	}
	if first := j.firstNs.Load(); first >= 0 {
		st.firstChunk.Observe(first)
	}
	// Imbalance is only meaningful for the dynamic schedule: static
	// splits are fixed by construction, so their skew is the caller's
	// choice, not the scheduler's.
	if j.bounds == nil && total > 0 && wake > 0 {
		mean := float64(total) / float64(wake)
		st.imbalance.Observe(int64(1000 * float64(max) / mean))
	}
}

// sharedObs, when set, instruments every process-wide team — existing
// and future (sharedFor applies it at creation). Guarded by sharedMu.
var sharedObs *obs.Registry

// InstrumentShared publishes the scheduling counters of every
// process-wide team (the ones behind For/StaticFor) into a
// "parallel" child of reg, covering teams that already exist and teams
// created later. The shared teams outlive any one experiment, so these
// counters are process-global; per-experiment registries only isolate
// the walker and DES counters. A nil reg is a no-op.
func InstrumentShared(reg *obs.Registry) {
	if reg == nil {
		return
	}
	scope := reg.Child("parallel")
	sharedMu.Lock()
	defer sharedMu.Unlock()
	sharedObs = scope
	for _, st := range sharedTeams {
		st.mu.Lock()
		st.t.Instrument(scope)
		st.mu.Unlock()
	}
}
