package experiments

import (
	"math"
	"strconv"

	"repro/internal/graph"
	"repro/internal/jaccard"
	"repro/internal/perfmodel"
	"repro/internal/spmv"
	"repro/internal/units"
)

func runFigure10(ctx *Context) *Report {
	r := newReport("figure10", "Figure 10: All-pairs Jaccard similarity on R-MAT graphs")

	// Real host runs at reduced scale: the algorithm itself, measured.
	hostScales := []int{12, 13, 14}
	if ctx.Quick {
		hostScales = []int{11, 12}
	}
	r.Printf("host runs (real all-pairs kernel):")
	var prevTime float64
	var growths []float64
	for _, s := range hostScales {
		cfg := graph.DefaultRMAT(s, 1)
		cfg.EdgeFactor = 8
		cfg.Undirected = true
		g := graph.RMAT(cfg)
		st := jaccard.AllPairs(g, 0, nil) //p8:allow determinism: deliberate host measurement — the elapsed time is reported as a labeled host reference and only sanity-bounded, never fingerprinted
		r.Hostf("  scale %2d: %8.3fs  pairs %.3g  output %v  input %v",
			s, st.Elapsed.Seconds(), float64(st.Pairs), st.OutputBytes, st.InputBytes())
		r.CheckMin("scale "+itoa(s)+" output/input ratio", float64(st.OutputBytes)/float64(st.InputBytes()), 2)
		if prevTime > 0 {
			growths = append(growths, st.Elapsed.Seconds()/prevTime)
		}
		prevTime = st.Elapsed.Seconds()
	}

	// E870 projection at the paper's scales 17-23.
	r.Printf("E870 projection (scales 17-23, 1 thread/core as in the paper):")
	jm := perfmodel.DefaultJaccardModel()
	scales := []int{17, 18, 19, 20, 21, 22, 23}
	var first, last perfmodel.JaccardPoint
	for i, s := range scales {
		p := perfmodel.ProjectJaccard(ctx.Machine, jm, s, 1)
		r.Printf("  scale %2d: %9.2fs  pairs %.3g  footprint %v", p.Scale, p.TimeSec, p.Pairs, p.Footprint)
		if i == 0 {
			first = p
		}
		last = p
	}
	perScale := last.TimeSec / first.TimeSec
	steps := float64(last.Scale - first.Scale)
	r.CheckMin("projected time growth per scale (x, superlinear)",
		math.Pow(perScale, 1/steps), 2.05)
	r.CheckMin("scale-23 footprint exceeds commodity node (GiB)",
		float64(last.Footprint)/float64(units.GiB), 64)
	r.Note("paper reports no absolute values for Figure 10; checks are the figure's qualitative content: superlinear growth and output >> input")
	return r
}

func runFigure11(ctx *Context) *Report {
	r := newReport("figure11", "Figure 11: CSR SpMV performance across the matrix suite")
	cm := perfmodel.DefaultCSRModel()
	suite := graph.Suite()

	r.Printf("%-18s %16s %16s", "matrix", "E870 projection", "host measured")
	var dense float64
	rates := map[string]float64{}
	for _, p := range suite {
		proj := perfmodel.ProjectCSR(ctx.Machine, cm, p)
		rates[p.Name] = proj.GFLOPs
		if p.Name == "Dense" {
			dense = proj.GFLOPs
		}
		if ctx.Quick && p.NNZ >= 3e6 {
			r.Printf("%-18s %11.0f GF/s %16s", p.Name, proj.GFLOPs, "")
			continue
		}
		hp := p
		if ctx.Quick {
			// Shrink for test speed, preserving the structure (Dense,
			// at 16.8M nonzeros, is never run in quick mode).
			hp.N /= 4
			hp.NNZ /= 4
		}
		m := graph.Generate(hp, 1)
		rate := spmv.MeasureCSR(m, 0, 3) //p8:allow determinism: deliberate host measurement — the rate is reported as a labeled host reference and only sanity-bounded, never fingerprinted
		r.Hostf("%-18s %11.0f GF/s %16s", p.Name, proj.GFLOPs, rate.String())
	}
	r.CheckMin("Dense is the reference peak (GF/s)", dense, 100)
	similar := 0
	for _, p := range suite {
		if p.Kind == graph.KindBanded || p.Kind == graph.KindBlocked {
			if rates[p.Name] >= 0.6*dense {
				similar++
			}
		}
	}
	r.CheckMin("structured matrices near Dense (count >= 5)", float64(similar), 5)
	r.CheckMin("power-law matrices trail structured ones",
		rates["Wind Tunnel"]-rates["Webbase"], 1)
	r.Note("suite matrices are synthetic stand-ins with the UF originals' published sizes/nnz and structure class (offline reproduction)")
	return r
}

func runFigure12(ctx *Context) *Report {
	r := newReport("figure12", "Figure 12: Graph SpMV scalability on R-MAT graphs")

	// Real host runs of the two-scan algorithm at reduced scale.
	hostScales := []int{12, 14, 16}
	if ctx.Quick {
		hostScales = []int{11, 13}
	}
	r.Printf("host runs (real two-scan kernel, block 4096):")
	for _, s := range hostScales {
		g := graph.RMAT(graph.DefaultRMAT(s, 1))
		ts := spmv.NewTwoScan(g, 4096)
		rate := spmv.MeasureTwoScan(ts, 0, 3) //p8:allow determinism: deliberate host measurement — the rate is reported as a labeled host reference and only sanity-bounded, never fingerprinted
		r.Hostf("  scale %2d: %8.2f GFLOP/s  avg block nnz %.0f", s, rate.GFs(), ts.AvgBlockNNZ())
	}

	// E870 projection up to the paper's scale 31 (2 billion vertices).
	tm := perfmodel.DefaultTwoScanModel()
	r.Printf("E870 projection (scales 18-31):")
	var p24, p31 perfmodel.TwoScanPoint
	for s := 18; s <= 31; s++ {
		p := perfmodel.ProjectTwoScan(ctx.Machine, tm, s)
		r.Printf("  scale %2d: %8.1f GFLOP/s  avg block nnz %.0f", p.Scale, p.GFLOPs, p.AvgBlockNNZ)
		if s == 24 {
			p24 = p
		}
		if s == 31 {
			p31 = p
		}
	}
	r.CheckRatio("R-MAT 24 avg block nnz", p24.AvgBlockNNZ, 12000, 4)
	r.CheckRatio("R-MAT 31 avg block nnz", p31.AvgBlockNNZ, 63, 2)
	r.CheckMin("performance declines from 24 to 31 (x)", p24.GFLOPs/p31.GFLOPs, 1.5)
	r.Note("scales beyond ~22 are projected: the paper's scale-31 run holds 68 billion edges, beyond host memory; block populations come from the exact analytic occupancy model (internal/perfmodel)")
	return r
}

func itoa(v int) string { return strconv.Itoa(v) }
