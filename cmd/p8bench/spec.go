package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// workers is the load shape's width: at most two RunSuite workers, two
// service job workers, two HTTP clients and two connections, whatever
// the host's CPU count. Both commits of a comparison run the same shape.
const workers = 2

// runSeconds is how long one untraced run measures (-seconds default).
const runSeconds = 20

// benchSpec is the benchmark definition written to BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eMetric is an end-to-end metric. Bound is the share of the base
// median by which the metric may worsen before a change is a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. Each is a timing or size a user sees and is never zero.
//
// The bounds follow the measured run-to-run spread. On a shared 2-vCPU
// host, sets of ten seeded runs per workload put the interquartile range
// of the timings at up to 24% of the median (suite-warm, whose disk
// reads suffer most from busy neighbours), so timings get 25%, the
// widest bound allowed. Peak RSS spread up to 7.5% and gets 20%. Set-up
// time keeps the widest bound too.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// layerGroup is a set of per-layer metrics and the end-to-end metric
// they should move, on which workloads.
type layerGroup struct {
	moves   string
	metrics []layerMetric
}

// experimentIDs are the 18 paper experiments and the 4 degradation
// experiments, in suite order; the traced run reports each one's time.
var experimentIDs = []string{
	"table1", "table2", "figure1", "figure2", "table3", "figure3",
	"table4", "figure4", "figure5", "figure6", "figure7", "figure8",
	"figure9", "figure10", "figure11", "figure12", "table5", "table6",
	"deg-lanes", "deg-cores", "deg-channels", "deg-plan",
}

func expMetric(id string) string { return "power8.exp." + id + ".ms" }

func lower(unit string, names ...string) []layerMetric  { return metrics(unit, "lower", names) }
func higher(unit string, names ...string) []layerMetric { return metrics(unit, "higher", names) }

func metrics(unit, better string, names []string) []layerMetric {
	out := make([]layerMetric, len(names))
	for i, n := range names {
		out[i] = layerMetric{n, unit, better}
	}
	return out
}

func cat(parts ...[]layerMetric) []layerMetric {
	var out []layerMetric
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func layerGroups() []layerGroup {
	exps := make([]string, len(experimentIDs))
	for i, id := range experimentIDs {
		exps[i] = expMetric(id)
	}
	return []layerGroup{
		{"op_p50_ms on suite-cold and faults-des", cat(
			lower("ms", exps...),
			lower("ms", "power8.pass_ref_ms"),
			lower("count", "power8.allocs_per_pass"),
			lower("%", "power8.exp_sum_vs_pass_pct", "power8.trace_overhead_pct"),
		)},
		{"op_p50_ms on suite-cold", cat(
			lower("count", "machine.walker.accesses"),
			higher("count", "machine.walker.hit.l1", "machine.walker.hit.l2", "machine.walker.hit.l3"),
			lower("count", "machine.walker.hit.l3_remote", "machine.walker.hit.l4", "machine.walker.hit.dram"),
			lower("ns", "machine.walker.ns_per_access", "cache.read_ns"),
			lower("ms", "perfmodel.project_jaccard_s17_ms", "perfmodel.project_jaccard_s19_ms", "perfmodel.project_jaccard_s21_ms"),
			lower("ns", "graph.rmat_degrees_ns_per_edge"),
			lower("ms", "hf.run_ms"),
			lower("ns", "spmv.csr_ns_per_nnz"),
			lower("ms", "jaccard.allpairs_ms"),
			lower("count", "parallel.team.dispatches"),
			lower("permille", "parallel.team.imbalance_permille_p50"),
			lower("ns", "parallel.team.first_chunk_ns_p50"),
		)},
		{"op_p50_ms on faults-des and p8d-mixed", cat(
			lower("count", "engine.events", "engine.rounds", "engine.mailbox_msgs", "engine.barrier_stalls", "engine.critical_path_events"),
			higher("permille", "engine.lookahead_efficiency_permille"),
			lower("ns", "machine.des.ns_per_event"),
			lower("us", "fault.derive_us"),
		)},
		{"op_p50_ms on suite-warm and p8d-mixed", cat(
			lower("us", "canon.machine_fp_us", "power8.load_report_us"),
			lower("count", "memo.lookups"),
			higher("count", "memo.hits"),
			lower("count", "memo.misses"),
			higher("ratio", "memo.hit_ratio"),
			higher("count", "memo.disk_hits"),
			lower("ns", "memo.disk_read_ns_p50"),
			lower("count", "memo.singleflight_waits", "memo.evictions"),
		)},
		{"op_p50_ms and ops_per_s on p8d-mixed", cat(
			lower("us", "journal.append_sync_us_p50", "journal.append_sync_us_p99", "journal.append_nosync_us_p50"),
			lower("count", "journal.appends", "journal.fsyncs", "journal.rotations"),
			lower("ms", "service.submit_ms_p50", "service.submit_ms_p90", "service.poll_ms_p50",
				"service.poll_ms_p90", "service.reports_ms_p50", "service.reports_ms_p90"),
			lower("bytes", "service.reports_bytes"),
			lower("count", "service.jobs_submitted"),
			higher("count", "service.reports_cached"),
			lower("count", "service.reports_computed", "service.http_requests"),
		)},
	}
}

// perLayer lists every per-layer metric in report order.
func perLayer() []layerMetric {
	var out []layerMetric
	for _, g := range layerGroups() {
		out = append(out, g.metrics...)
	}
	return out
}

// spec assembles the benchmark definition.
func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "cmd/p8bench/run.sh"},
		Paths:      []string{"cmd/p8bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range allWorkloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

// specJSON renders the definition exactly as BENCHMARK.json holds it.
func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode spec: %w", err)
	}
	return append(b, '\n'), nil
}

func writeSpec(path string) error {
	b, err := specJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
