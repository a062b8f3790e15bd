package power8

// Integration tests: flows that cross package boundaries, validating
// that independently tested components agree with each other.

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/hf"
	"repro/internal/jaccard"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/spmv"
	"repro/internal/trace"
)

// TestIntegrationSpMVEnginesAgree: the CSR kernel, the two-scan kernel
// and PageRank built on top must be mutually consistent on the same
// R-MAT matrix.
func TestIntegrationSpMVEnginesAgree(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(11, 77))
	x := make([]float64, g.Cols)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	yCSR := make([]float64, g.Rows)
	spmv.CSR(yCSR, g, x, 0)

	ts := spmv.NewTwoScan(g, 512)
	yTS := make([]float64, g.Rows)
	ts.Multiply(yTS, x, 0)

	for i := range yCSR {
		if math.Abs(yCSR[i]-yTS[i]) > 1e-9 {
			t.Fatalf("row %d: CSR %v vs two-scan %v", i, yCSR[i], yTS[i])
		}
	}

	ranks, iters := spmv.PageRank(g, 0.85, 1e-10, 200, 0)
	if iters >= 200 {
		t.Error("PageRank did not converge on an R-MAT graph")
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Errorf("PageRank mass = %v", sum)
	}
}

// TestIntegrationJaccardFeedsProjection: the measured host dedup ratio
// at one scale feeds the Figure 10 projection; projecting the same scale
// must then reproduce the measured pair count closely.
func TestIntegrationJaccardFeedsProjection(t *testing.T) {
	const scale = 12
	cfg := graph.DefaultRMAT(scale, 4)
	cfg.EdgeFactor = 8
	cfg.Undirected = true
	g := graph.RMAT(cfg)
	st := jaccard.AllPairs(g, 0, nil)

	// Calibrate the dedup ratio in the projection's own operation space,
	// the expected raw multigraph Σd² it reports as Ops.
	m := NewE870()
	jm := perfmodel.DefaultJaccardModel()
	projected := float64(st.Pairs) / perfmodel.ProjectJaccard(m, jm, scale, 4).Ops
	// Re-anchor the fitted law at this measurement; the projection at
	// the same scale must then reproduce the measured pair count.
	jm.DedupBase *= projected / jm.DedupAt(scale)
	p := perfmodel.ProjectJaccard(m, jm, scale, 4)
	ratio := p.Pairs / float64(st.Pairs)
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("projected pairs %v vs measured %d (ratio %.2f)", p.Pairs, st.Pairs, ratio)
	}

	// The unanchored law must already be close on this graph's own
	// streamed degrees (it was fitted on other seeds).
	rawCfg := graph.DefaultRMAT(scale, 4)
	rawCfg.EdgeFactor = 8
	rawDeg, err := graph.RMATDegrees(rawCfg)
	if err != nil {
		t.Fatal(err)
	}
	var rawOps float64
	for _, d := range rawDeg {
		rawOps += float64(d) * float64(d)
	}
	measured := float64(st.Pairs) / rawOps
	if def := perfmodel.DefaultJaccardModel().DedupAt(scale); !within(measured, def, 0.20) {
		t.Errorf("measured raw-space dedup ratio %.4f vs fitted law %.4f", measured, def)
	}
}

// within reports whether got is within frac of want.
func within(got, want, frac float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= want*frac
}

// TestIntegrationWalkerMatchesTableIV: the trace-driven walker and the
// analytic model must agree on every chip-to-chip latency, not just the
// interleaved row.
func TestIntegrationWalkerMatchesTableIV(t *testing.T) {
	m := NewE870()
	const lines = 256 * 1024 * 1024 / 128
	for _, dst := range []int{1, 4, 7} {
		dst := dst
		w := m.NewWalker(machine.WalkerConfig{
			Chip:            0,
			DisablePrefetch: true,
			Home:            func(uint64) arch.ChipID { return arch.ChipID(dst) },
		})
		// Cold DRAM-resident chase: every access is a remote DRAM miss.
		res := w.Run(trace.NewChase(0, lines, 1, uint64(dst)), 150000)
		analytic := m.DemandLatencyNs(0, arch.ChipID(dst))
		// Translation costs sit on top of the analytic uncore figure.
		if res.AvgNs() < analytic || res.AvgNs() > analytic+50 {
			t.Errorf("chip0->chip%d: walker %.0f ns vs analytic %.0f ns",
				dst, res.AvgNs(), analytic)
		}
	}
}

// TestIntegrationHFHostToProjection: a real host SCF feeds a Table
// VI-style projection: the host's HF-Mem/HF-Comp speedup and the
// projected E870 speedup must agree in direction and be of the same
// order.
func TestIntegrationHFHostToProjection(t *testing.T) {
	spec := hf.TableV()[3].Scaled(80)
	mol := spec.Build()
	comp, err := hf.Run(mol, hf.Config{Mode: hf.HFComp})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := hf.Run(mol, hf.Config{Mode: hf.HFMem})
	if err != nil {
		t.Fatal(err)
	}
	hostSpeedup := comp.Total.Seconds() / mem.Total.Seconds()
	if hostSpeedup <= 1 {
		t.Fatalf("host HF-Mem not faster: %.2fx", hostSpeedup)
	}
	rows := perfmodel.ProjectTableVI(0)
	proj := rows[3].Speedup // 1hsg-28
	if proj <= 1 {
		t.Fatalf("projected HF-Mem not faster: %.2fx", proj)
	}
	if hostSpeedup > 20*proj || proj > 20*hostSpeedup {
		t.Errorf("host (%.1fx) and projected (%.1fx) speedups wildly inconsistent", hostSpeedup, proj)
	}
}
