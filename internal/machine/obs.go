package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
)

// This file publishes the machine layer's counters into the obs
// registry. The walker and the DES simulator accumulate into plain
// fields on their hot paths (see the fields on Walker and engine.Sim)
// and this code flushes deltas at run boundaries — so instrumentation
// costs nothing per access, and an experiment's registry still ends up
// with the same per-level hit counts a hardware PMU would have shown.
//
// Counter taxonomy under an experiment scope (see DESIGN.md
// "Observability" for units and the paper artifact each group explains):
//
//	walker/accesses                demand loads issued
//	walker/xlate/{erat_miss,tlb_miss}
//	walker/hit/{l1,l2,l3,l3_remote,l4,dram,prefetch}
//	walker/miss/{l1,l2,l3,l4}      demand loads satisfied past the level
//	walker/prefetch/dscr<k>/{issued,streams_detected,confirmed,
//	                         stale_dropped,hints}
//	des/{events,scheduled,completions}, des/queue_depth_hwm,
//	des/banks, des/chasers, des/bank_utilization_permille

// walkerCounts is one simulated thread's counter tally. A walker adds
// to it on the access path and keeps a second copy of what it last
// published, so repeated flushes add exact deltas.
type walkerCounts struct {
	accesses     uint64
	prefetchHits uint64
	eratMisses   uint64
	tlbMisses    uint64
	// staleDrops counts prefetches that completed but went stale before
	// their demand access arrived (the Figure 8 overrun effect); hints
	// counts DCBT stream declarations.
	staleDrops uint64
	hints      uint64
	// levelCounts is indexed by cache.Level — an array, not a map,
	// because it is incremented on every access.
	levelCounts [cache.NumLevels]uint64
	pfIssued    uint64
	pfDetected  uint64
}

// levelSlug names a cache level in counter paths.
func levelSlug(l cache.Level) string {
	switch l {
	case cache.LevelL1:
		return "l1"
	case cache.LevelL2:
		return "l2"
	case cache.LevelL3:
		return "l3"
	case cache.LevelL3Remote:
		return "l3_remote"
	case cache.LevelL4:
		return "l4"
	default:
		return "dram"
	}
}

// PublishStats flushes the walker's counter deltas into the registry
// given as WalkerConfig.Obs, under a "walker" child scope. Run calls it
// automatically at the end of every trace; explicit calls are only
// needed around hand-rolled Access loops. With no registry configured it
// returns immediately.
func (w *Walker) PublishStats() {
	if w.cfg.Obs == nil {
		return
	}
	w.n.pfIssued, w.n.pfDetected = w.pf.Issued(), w.pf.Detected()
	publishWalker(w.cfg.Obs, w.cfg.Prefetch.DSCR, w.n, &w.published)
}

// publishWalker adds cur minus *p to reg's "walker" scope and records
// cur as published. dscr names the prefetch counters' scope.
func publishWalker(reg *obs.Registry, dscr int, cur walkerCounts, p *walkerCounts) {
	scope := reg.Child("walker")

	scope.Counter("accesses").Add(cur.accesses - p.accesses)
	xl := scope.Child("xlate")
	xl.Counter("erat_miss").Add(cur.eratMisses - p.eratMisses)
	xl.Counter("tlb_miss").Add(cur.tlbMisses - p.tlbMisses)

	// Per-level demand hit deltas, then the derived misses: a load
	// satisfied at level k missed every level above it. The local and
	// lateral-victim L3 probes count as one level for misses — miss/l3
	// is traffic that left the chip's L3 complex entirely.
	var d [cache.NumLevels]uint64
	hit := scope.Child("hit")
	for l := 0; l < cache.NumLevels; l++ {
		d[l] = cur.levelCounts[l] - p.levelCounts[l]
		hit.Counter(levelSlug(cache.Level(l))).Add(d[l])
	}
	hit.Counter("prefetch").Add(cur.prefetchHits - p.prefetchHits)
	miss := scope.Child("miss")
	dL3r, dL4, dDRAM := d[cache.LevelL3Remote], d[cache.LevelL4], d[cache.LevelDRAM]
	miss.Counter("l1").Add(d[cache.LevelL2] + d[cache.LevelL3] + dL3r + dL4 + dDRAM)
	miss.Counter("l2").Add(d[cache.LevelL3] + dL3r + dL4 + dDRAM)
	miss.Counter("l3").Add(dL4 + dDRAM)
	miss.Counter("l4").Add(dDRAM)

	pf := scope.Child("prefetch").Child(fmt.Sprintf("dscr%d", dscr))
	pf.Counter("issued").Add(cur.pfIssued - p.pfIssued)
	pf.Counter("streams_detected").Add(cur.pfDetected - p.pfDetected)
	pf.Counter("confirmed").Add(cur.prefetchHits - p.prefetchHits)
	pf.Counter("stale_dropped").Add(cur.staleDrops - p.staleDrops)
	pf.Counter("hints").Add(cur.hints - p.hints)

	*p = cur
}
