package power8

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section. Each benchmark regenerates its
// artifact through the experiment registry (quick mode bounds working
// sets so a full `go test -bench=. -benchmem` stays tractable) and
// reports the artifact's headline quantity as a custom metric, so a
// bench run doubles as a reproduction summary:
//
//	go test -bench=. -benchmem
//
// Host-kernel benchmarks for the real STREAM/SpMV/Jaccard/HF code paths
// live alongside in hostkernels_bench_test.go.

import (
	"strings"
	"testing"
)

// benchMachine is shared across benchmarks; the model is stateless
// between experiments.
var benchMachine = NewE870()

// runExperiment drives one registry entry b.N times and extracts a
// headline metric from its checks.
func runExperiment(b *testing.B, id string, metricCheck, metricUnit string) {
	b.Helper()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = Run(id, benchMachine, true); err != nil {
			b.Fatal(err)
		}
	}
	if rep == nil || !rep.Passed() {
		for _, c := range rep.Checks {
			if !c.Pass() {
				b.Fatalf("%s reproduction check failed: %s", id, c.String())
			}
		}
	}
	if metricCheck == "" {
		return
	}
	for _, c := range rep.Checks {
		if strings.Contains(c.Name, metricCheck) {
			b.ReportMetric(c.Got, metricUnit)
			return
		}
	}
	b.Fatalf("%s: metric check %q not found", id, metricCheck)
}

func BenchmarkTable1_PowerComparison(b *testing.B) {
	runExperiment(b, "table1", "POWER8 threads/core", "threads/core")
}

func BenchmarkTable2_E870Characteristics(b *testing.B) {
	runExperiment(b, "table2", "peak memory GB/s", "GB/s-peak")
}

func BenchmarkFigure1_Topology(b *testing.B) {
	runExperiment(b, "figure1", "X-bus links", "links")
}

func BenchmarkFigure2_LatencyCurve(b *testing.B) {
	runExperiment(b, "figure2", "L3 plateau ns", "ns-L3")
}

func BenchmarkTable3_StreamRatios(b *testing.B) {
	runExperiment(b, "table3", "bandwidth 2:1", "GB/s-2:1")
}

func BenchmarkFigure3_BandwidthScaling(b *testing.B) {
	runExperiment(b, "figure3", "single-chip peak", "GB/s-chip")
}

func BenchmarkTable4_SMPInterconnect(b *testing.B) {
	runExperiment(b, "table4", "X aggregate GB/s", "GB/s-xbus")
}

func BenchmarkFigure4_RandomAccess(b *testing.B) {
	runExperiment(b, "figure4", "peak random bandwidth", "GB/s-random")
}

func BenchmarkFigure5_FMAThroughput(b *testing.B) {
	runExperiment(b, "figure5", "chains needed for peak", "chains")
}

func BenchmarkFigure6_PrefetchDepth(b *testing.B) {
	runExperiment(b, "figure6", "deepest/none latency improvement", "x-improvement")
}

func BenchmarkFigure7_StrideN(b *testing.B) {
	runExperiment(b, "figure7", "enabled latency at deepest", "ns-stride")
}

func BenchmarkFigure8_DCBT(b *testing.B) {
	runExperiment(b, "figure8", "DCBT gain on 1 KiB blocks", "x-gain")
}

func BenchmarkFigure9_Roofline(b *testing.B) {
	runExperiment(b, "figure9", "LBMHD bound GFLOP/s (red diamond)", "GFLOPs-LBMHD")
}

func BenchmarkFigure10_Jaccard(b *testing.B) {
	runExperiment(b, "figure10", "projected time growth per scale", "x-per-scale")
}

func BenchmarkFigure11_SpMVSuite(b *testing.B) {
	runExperiment(b, "figure11", "Dense is the reference peak", "GFLOPs-dense")
}

func BenchmarkFigure12_GraphSpMV(b *testing.B) {
	runExperiment(b, "figure12", "performance declines from 24 to 31", "x-decline")
}

func BenchmarkTable5_MolecularSystems(b *testing.B) {
	runExperiment(b, "table5", "", "")
}

func BenchmarkTable6_HartreeFock(b *testing.B) {
	runExperiment(b, "table6", "", "")
}

// BenchmarkFullReproduction runs every experiment once per iteration —
// the whole paper in one number. RunSuite fans the experiments out
// across the host's CPUs; the sequential variant below is the one-worker
// baseline, so comparing the two benches measures the harness's own
// parallel speedup on the current host.
func BenchmarkFullReproduction(b *testing.B) {
	benchFullSuite(b, 0)
}

// BenchmarkFullReproductionSequential is the single-worker baseline.
func BenchmarkFullReproductionSequential(b *testing.B) {
	benchFullSuite(b, 1)
}

func benchFullSuite(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		reports := RunSuite(Experiments(), benchMachine, RunOptions{Quick: true, Workers: workers})
		passed := 0
		for _, r := range reports {
			if r.Passed() {
				passed++
			}
		}
		if passed != len(reports) {
			b.Fatalf("only %d/%d experiments passed", passed, len(reports))
		}
		b.ReportMetric(float64(passed), "experiments")
	}
}

// Guard against accidental registry drift: the per-artifact benchmarks
// above must cover the registry exactly.
func TestBenchmarkCoverage(t *testing.T) {
	covered := map[string]bool{
		"table1": true, "table2": true, "figure1": true, "figure2": true,
		"table3": true, "figure3": true, "table4": true, "figure4": true,
		"figure5": true, "figure6": true, "figure7": true, "figure8": true,
		"figure9": true, "figure10": true, "figure11": true, "figure12": true,
		"table5": true, "table6": true,
	}
	for _, e := range Experiments() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark", e.ID)
		}
		delete(covered, e.ID)
	}
	for id := range covered {
		t.Errorf("benchmark covers unknown experiment %s", id)
	}
}
