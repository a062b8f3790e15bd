package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	power8 "repro"
	"repro/internal/arch"
	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/hf"
	"repro/internal/jaccard"
	"repro/internal/journal"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/spmv"
	"repro/internal/trace"
)

// obsView flattens an obs snapshot into "/"-joined paths below its root.
type obsView struct {
	counters map[string]float64
	gauges   map[string]float64
	dists    map[string]obs.DistSummary
}

func viewOf(s obs.Snapshot) obsView {
	v := obsView{map[string]float64{}, map[string]float64{}, map[string]obs.DistSummary{}}
	var walk func(prefix string, s obs.Snapshot)
	walk = func(prefix string, s obs.Snapshot) {
		for _, c := range s.Counters {
			v.counters[prefix+c.Name] = float64(c.Value)
		}
		for _, g := range s.Gauges {
			v.gauges[prefix+g.Name] = float64(g.Value)
		}
		for _, d := range s.Distributions {
			v.dists[prefix+d.Name] = d
		}
		for _, c := range s.Children {
			walk(prefix+c.Name+"/", c)
		}
	}
	walk("", s)
	return v
}

// since returns v with the counters of base subtracted.
func (v obsView) since(base obsView) obsView {
	out := obsView{map[string]float64{}, v.gauges, v.dists}
	for k, c := range v.counters {
		out.counters[k] = c - base.counters[k]
	}
	return out
}

// sum adds up the counters at path suffix in every scope.
func (v obsView) sum(suffix string) float64 {
	var total float64
	for k, c := range v.counters {
		if k == suffix || strings.HasSuffix(k, "/"+suffix) {
			total += c
		}
	}
	return total
}

// busiest returns the distribution named name with the most samples
// among scopes under prefix.
func (v obsView) busiest(prefix, name string) obs.DistSummary {
	var best obs.DistSummary
	for k, d := range v.dists {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, "/"+name) && d.Count > best.Count {
			best = d
		}
	}
	return best
}

// distP50 is a distribution's median, or 0 with withheld set when fewer
// than minBeyond samples lie beyond it (including when it is empty).
func distP50(d obs.DistSummary) (v float64, withheld bool) {
	if d.Count-uint64(math.Ceil(float64(d.Count)/2)) < minBeyond {
		return 0, d.Count > 0
	}
	return float64(d.P50), false
}

// obsLayer reads the per-layer metrics the program's own counters give:
// walker and DES counts (under a Stats registry), the shared teams'
// scheduling, the report cache, the journal and the service. A layer
// the workload never called reads 0.
func obsLayer(v obsView) map[string]float64 {
	out := map[string]float64{"machine.walker.accesses": v.sum("walker/accesses")}
	for _, lvl := range []string{"l1", "l2", "l3", "l3_remote", "l4", "dram"} {
		out["machine.walker.hit."+lvl] = v.sum("walker/hit/" + lvl)
	}
	for _, c := range []string{"events", "rounds", "mailbox_msgs", "barrier_stalls", "critical_path_events"} {
		out["engine."+c] = v.sum("des/" + c)
	}
	// Lookahead efficiency is a per-simulation gauge; weight it by events.
	var eff, events float64
	for k, g := range v.gauges {
		if scope, ok := strings.CutSuffix(k, "des/lookahead_efficiency_permille"); ok {
			eff += g * v.counters[scope+"des/events"]
			events += v.counters[scope+"des/events"]
		}
	}
	if events > 0 {
		out["engine.lookahead_efficiency_permille"] = eff / events
	}

	for k, c := range v.counters {
		if strings.HasPrefix(k, "parallel/") && strings.HasSuffix(k, "/dispatches") {
			out["parallel.team.dispatches"] += c
		}
	}
	var withheld []string
	for _, d := range []struct{ dist, metric string }{
		{"imbalance_permille", "parallel.team.imbalance_permille_p50"},
		{"first_chunk_ns", "parallel.team.first_chunk_ns_p50"},
		{"disk_read_ns", "memo.disk_read_ns_p50"},
	} {
		prefix := "parallel/"
		if d.dist == "disk_read_ns" {
			prefix = "memo/reports/"
		}
		var w bool
		if out[d.metric], w = distP50(v.busiest(prefix, d.dist)); w {
			withheld = append(withheld, d.metric)
		}
	}
	if len(withheld) > 0 {
		fmt.Fprintf(os.Stderr, "p8bench: too few samples for %s; reported as 0\n", strings.Join(withheld, ", "))
	}

	memo := func(name string) float64 { return v.counters["memo/reports/"+name] }
	out["memo.hits"] = memo("hits")
	out["memo.misses"] = memo("misses")
	out["memo.disk_hits"] = memo("disk_hits")
	out["memo.singleflight_waits"] = memo("singleflight_waits")
	out["memo.evictions"] = memo("evictions")
	out["memo.lookups"] = memo("hits") + memo("misses") + memo("singleflight_waits")
	if out["memo.lookups"] > 0 {
		out["memo.hit_ratio"] = (memo("hits") + memo("disk_hits")) / out["memo.lookups"]
	}
	for _, c := range []string{"appends", "fsyncs", "rotations"} {
		out["journal."+c] = v.counters["journal/"+c]
	}
	for _, c := range []string{"jobs_submitted", "reports_cached", "reports_computed", "http_requests"} {
		out["service."+c] = v.counters["p8d/"+c]
	}
	return out
}

// Probe sizes: fixed inputs, the same in every traced run.
const (
	chaseBytes     = 384 << 20 // figure2's largest quick working set
	probeAccesses  = 1_000_000
	spmvIters      = 20
	deriveRuns     = 100
	fingerprints   = 1000
	reportLoads    = 200
	journalAppends = 1000 // p99 then has 10 samples beyond it
)

// probeFunc runs fn inside the probe span name and returns its duration.
type probeFunc func(name string, fn func()) time.Duration

// runProbes times calls into each layer's public API on fixed inputs,
// each inside a probe span, and returns the per-layer metrics they give.
func runProbes(t *tracer, seed uint64) (map[string]float64, error) {
	m := power8.NewE870()
	out := map[string]float64{}
	traceID := 1 << 20
	var probe probeFunc = func(name string, fn func()) time.Duration {
		traceID++ // each probe is its own trace
		return t.do(probeSpan+name, 0, traceID, fn)
	}
	perOp := func(d time.Duration, ops float64) float64 { return float64(d.Nanoseconds()) / ops }

	lines := chaseBytes / trace.LineSize
	cfg := machine.WalkerConfig{Page: arch.Page64K, DisablePrefetch: true}
	w := m.NewWalker(cfg)
	chase := trace.NewChase(0, lines, 1, 42)
	var walked machine.WalkResult
	d := probe("machine.walker", func() { walked = w.Run(chase, probeAccesses) })
	out["machine.walker.ns_per_access"] = perOp(d, float64(walked.Accesses))

	addrs := trace.Collect(trace.NewChase(0, lines, 1, 42), probeAccesses)
	h := m.NewWalker(cfg).Hierarchy()
	d = probe("cache", func() {
		for _, a := range addrs {
			h.Read(a, true)
		}
	})
	out["cache.read_ns"] = perOp(d, float64(len(addrs)))

	for _, s := range []int{17, 19, 21} {
		d = probe(fmt.Sprintf("perfmodel.project_jaccard_s%d", s), func() {
			perfmodel.ProjectJaccard(m, perfmodel.DefaultJaccardModel(), s, 1)
		})
		out[fmt.Sprintf("perfmodel.project_jaccard_s%d_ms", s)] = ms(d)
	}

	rmat := graph.DefaultRMAT(17, 1)
	var err error
	d = probe("graph.rmat_degrees", func() { _, err = graph.RMATDegrees(rmat) })
	if err != nil {
		return nil, fmt.Errorf("rmat probe: %w", err)
	}
	out["graph.rmat_degrees_ns_per_edge"] = perOp(d, float64(rmat.Edges()))

	mol := hf.TableV()[3].Scaled(60).Build()
	d = probe("hf", func() {
		for _, mode := range []hf.Mode{hf.HFComp, hf.HFMem} {
			if _, err = hf.Run(mol, hf.Config{Mode: mode, Threads: workers, ScreenTol: 1e-10}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("hf probe: %w", err)
	}
	out["hf.run_ms"] = ms(d)

	g := graph.RMAT(graph.DefaultRMAT(16, 1))
	x, y := make([]float64, g.Cols), make([]float64, g.Rows)
	for i := range x {
		x[i] = 1
	}
	spmv.CSR(y, g, x, workers)
	d = probe("spmv", func() {
		for i := 0; i < spmvIters; i++ {
			spmv.CSR(y, g, x, workers)
		}
	})
	out["spmv.csr_ns_per_nnz"] = perOp(d, float64(spmvIters*g.NNZ()))

	jcfg := graph.DefaultRMAT(12, 1)
	jcfg.EdgeFactor, jcfg.Undirected = 8, true
	jg := graph.RMAT(jcfg)
	d = probe("jaccard", func() { jaccard.AllPairs(jg, workers, nil) })
	out["jaccard.allpairs_ms"] = ms(d)

	des := obs.NewRegistry("probe")
	d = probe("machine.des", func() { m.SimulateRandomAccessSharded(8, 4, 200_000, 0, des, nil) })
	out["machine.des.ns_per_event"] = perOp(d, viewOf(des.Snapshot()).sum("des/events"))

	spec := arch.E870()
	plans := make([]*power8.FaultPlan, deriveRuns)
	for i := range plans {
		plans[i] = faultPlan(seed, i)
	}
	d = probe("fault.derive", func() {
		for _, p := range plans {
			p.Derive(spec)
		}
	})
	out["fault.derive_us"] = perOp(d, deriveRuns) / 1e3

	d = probe("canon.machine", func() {
		for i := 0; i < fingerprints; i++ {
			canon.Machine(m)
		}
	})
	out["canon.machine_fp_us"] = perOp(d, fingerprints) / 1e3

	if out["power8.load_report_us"], err = loadReportProbe(m, probe); err != nil {
		return nil, err
	}
	syncLat, err := journalProbe(journal.SyncAlways, "journal.append_sync", probe)
	if err != nil {
		return nil, err
	}
	noSyncLat, err := journalProbe(journal.SyncNever, "journal.append_nosync", probe)
	if err != nil {
		return nil, err
	}
	out["journal.append_sync_us_p50"] = median(syncLat)
	if out["journal.append_sync_us_p99"], err = percentile(syncLat, 0.99); err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	out["journal.append_nosync_us_p50"] = median(noSyncLat)
	return out, nil
}

// loadReportProbe times SuiteCache.LoadReport of one stored report, each
// from a fresh cache so every load reads the disk tier.
func loadReportProbe(m *power8.Machine, probe probeFunc) (float64, error) {
	dir, err := os.MkdirTemp("", "p8bench-load-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var e power8.Experiment
	for _, x := range power8.Experiments() {
		if x.ID == "table3" { // a small report
			e = x
		}
	}
	opts := power8.RunOptions{Quick: true, Workers: 1}
	caches := make([]*power8.SuiteCache, reportLoads+1)
	for i := range caches {
		if caches[i], err = power8.NewSuiteCache(power8.CacheOptions{Dir: dir}, nil); err != nil {
			return 0, err
		}
	}
	opts.Cache = caches[0]
	if err := checkReports(power8.RunSuite([]power8.Experiment{e}, m, opts)); err != nil {
		return 0, err
	}
	missing := 0
	d := probe("power8.load_report", func() {
		for _, c := range caches[1:] {
			if _, ok := c.LoadReport(e, m, opts); !ok {
				missing++
			}
		}
	})
	if missing > 0 {
		return 0, fmt.Errorf("load-report probe: %d of %d loads missed", missing, reportLoads)
	}
	return float64(d.Nanoseconds()) / 1e3 / reportLoads, nil
}

// journalProbe times journalAppends appends of a submit record under
// policy, in microseconds each, inside the probe span name.
func journalProbe(policy journal.SyncPolicy, name string, probe probeFunc) ([]float64, error) {
	dir, err := os.MkdirTemp("", "p8bench-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(dir, journal.Options{Sync: policy})
	if err != nil {
		return nil, err
	}
	rec := journal.Record{Kind: journal.KindSubmitted, JobID: "j1-00000000",
		Request: []byte(`{"spec":"e870","suite":"paper","experiments":["table3"],"quick":true}`)}
	lat := make([]float64, journalAppends)
	probe(name, func() {
		for i := range lat {
			rec.Seq = uint64(i + 1)
			start := time.Now()
			if err = j.Append(rec); err != nil {
				return
			}
			lat[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("journal probe: %w", err)
	}
	return lat, nil
}
