package machine

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// LaneWalker runs one address stream as several prefetch-disabled
// threads on chip 0, with memory homed there, that differ only in page
// size: one lane per page. With prefetch off, translation touches only
// the TLB, a demand read depends only on the line and its homing, and
// the inflight table stays empty, so every lane would drive its own
// cache hierarchy through the same states. The lanes therefore share
// one hierarchy and one stride tracker; each keeps its own TLB, counters
// and running latency total. Per lane, every float operation is the one
// a Walker with DisablePrefetch and that Page performs, so a lane's
// results are bit-identical to that walker's over the same trace.
// Figure 2 runs its two page sizes this way.
type LaneWalker struct {
	m      *Machine
	hier   *cache.Hierarchy
	stride strideTracker
	lanes  []lane
	obs    *obs.Registry
}

// lane is one page size's view of a LaneWalker's stream.
type lane struct {
	xl           translator
	totalNs      float64
	n, published walkerCounts
}

// NewLaneWalker builds a lane walker with one lane per page, in order.
// A non-nil reg receives each lane's counters under a "walker" child
// scope, with the names and values a Walker per page would publish.
func (m *Machine) NewLaneWalker(pages []arch.PageSize, reg *obs.Registry) *LaneWalker {
	w := &LaneWalker{m: m, hier: m.newHierarchy(), stride: newStrideTracker(), lanes: make([]lane, len(pages)), obs: reg}
	for i, page := range pages {
		w.lanes[i].xl = m.newTranslator(page)
	}
	return w
}

// access performs one dependent load in every lane. The cache read and
// its level latency are shared; each lane adds its own translation cost
// and accumulates the sum, exactly as Walker.Access does.
//
// Its zero-allocation budget is pinned by BenchmarkLatencyCurvesQuick in
// internal/micro.
//
//p8:hotpath
func (w *LaneWalker) access(addr uint64) {
	strided := w.stride.next(addr)
	level := w.hier.Read(addr&^uint64(trace.LineSize-1), true)
	levelNs := w.m.levelLatencyNs(0, level, 0, strided)
	for i := range w.lanes {
		l := &w.lanes[i]
		l.totalNs += l.xl.ns(addr, &l.n) + levelNs
		l.n.levelCounts[level]++
		l.n.accesses++
	}
}

// Run drives a trace through every lane, up to max accesses (all if
// max <= 0), and returns each lane's result in page order. Running
// totals carry over from earlier runs, as a Walker's do: a lane reports
// its total's growth over this run, not a fresh sum.
func (w *LaneWalker) Run(g trace.Generator, max int) []WalkResult {
	res := make([]WalkResult, len(w.lanes))
	for i := range w.lanes {
		res[i].TotalNs = w.lanes[i].totalNs
	}
	n := 0
	for {
		addr, ok := g.Next()
		if !ok {
			break
		}
		w.access(addr)
		n++
		if max > 0 && n >= max {
			break
		}
	}
	for i := range w.lanes {
		res[i] = WalkResult{Accesses: uint64(n), TotalNs: w.lanes[i].totalNs - res[i].TotalNs}
	}
	w.publishStats()
	return res
}

// Reset empties the shared hierarchy and every lane's TLB, forgets the
// demand stride and zeroes the running totals, so the next trace runs
// as on a new LaneWalker. Counters keep accumulating for the registry.
func (w *LaneWalker) Reset() {
	w.hier.Flush()
	w.stride = newStrideTracker()
	for i := range w.lanes {
		w.lanes[i].xl.xl.Flush()
		w.lanes[i].totalNs = 0
	}
}

// publishStats flushes every lane's counter deltas, each as one
// simulated thread. The prefetch counters publish as zeros under the
// default DSCR, as a prefetch-disabled Walker's do.
func (w *LaneWalker) publishStats() {
	if w.obs == nil {
		return
	}
	dscr := prefetch.DefaultConfig().DSCR
	for i := range w.lanes {
		l := &w.lanes[i]
		publishWalker(w.obs, dscr, l.n, &l.published)
	}
}
