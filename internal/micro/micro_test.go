package micro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/units"
)

func e870() *machine.Machine { return machine.New(arch.E870()) }

// TestFigure2CurveShape checks the full Figure 2 sweep: monotone
// plateaus rising from L1 through DRAM, with the huge-page curve below
// the 64 KiB curve at the largest working sets.
func TestFigure2CurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full latency sweep is slow")
	}
	m := e870()
	sizes := []units.Bytes{
		32 * units.KiB, 256 * units.KiB, 2 * units.MiB,
		32 * units.MiB, 120 * units.MiB, 384 * units.MiB,
	}
	small := LatencyCurves(m, []arch.PageSize{arch.Page64K}, sizes, 300000, nil)[0]
	if len(small) != len(sizes) {
		t.Fatalf("points = %d", len(small))
	}
	for i := 1; i < len(small); i++ {
		if small[i].AvgNs <= small[i-1].AvgNs {
			t.Errorf("latency not increasing: %v -> %v at %v",
				small[i-1].AvgNs, small[i].AvgNs, small[i].WorkingSet)
		}
	}
	huge := LatencyCurves(m, []arch.PageSize{arch.Page16M}, sizes[len(sizes)-1:], 300000, nil)[0]
	if huge[0].AvgNs >= small[len(small)-1].AvgNs {
		t.Error("huge pages not faster at 384 MiB")
	}
}

// TestTableIIIRows checks all nine Table III rows against the paper.
func TestTableIIIRows(t *testing.T) {
	rows := TableIII(e870())
	want := map[string]float64{
		"Read Only": 1141, "16:1": 1208, "8:1": 1267, "4:1": 1375,
		"2:1": 1472, "1:1": 894, "1:2": 748, "1:4": 658, "Write Only": 589,
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !stats.Within(r.Bandwidth.GBps(), want[r.Label], 0.01) {
			t.Errorf("%s: %.1f GB/s, want %v", r.Label, r.Bandwidth.GBps(), want[r.Label])
		}
	}
}

// TestFigure3Shapes checks the scaling curves' qualitative shape.
func TestFigure3Shapes(t *testing.T) {
	m := e870()
	a := Figure3a(m)
	if len(a) != 8 {
		t.Fatalf("Figure 3a points = %d", len(a))
	}
	if !stats.Within(a[7].Bandwidth.GBps(), 26, 0.05) {
		t.Errorf("8-thread core = %.1f GB/s, want ~26", a[7].Bandwidth.GBps())
	}
	b := Figure3b(m)
	if len(b) != 64 {
		t.Fatalf("Figure 3b points = %d", len(b))
	}
	var max float64
	for _, p := range b {
		if v := p.Bandwidth.GBps(); v > max {
			max = v
		}
	}
	if !stats.Within(max, 189, 0.04) {
		t.Errorf("chip max = %.1f GB/s, want ~189", max)
	}
}

// TestTableIVRows checks the pair rows and aggregates against the paper.
func TestTableIVRows(t *testing.T) {
	rows, agg := TableIV(e870())
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantLat := []float64{123, 125, 133, 213, 235, 237, 243}
	wantOne := []float64{30, 30, 30, 45, 45, 45, 45}
	for i, r := range rows {
		if !stats.Within(r.DemandNs, wantLat[i], 0.01) {
			t.Errorf("chip%d demand = %.0f, want %v", r.Dst, r.DemandNs, wantLat[i])
		}
		if !stats.Within(r.OneDirection.GBps(), wantOne[i], 0.05) {
			t.Errorf("chip%d one-dir = %.1f, want %v", r.Dst, r.OneDirection.GBps(), wantOne[i])
		}
		if r.PrefetchedNs > r.DemandNs/8 {
			t.Errorf("chip%d prefetched latency %.1f not an order of magnitude below %v",
				r.Dst, r.PrefetchedNs, r.DemandNs)
		}
		if r.String() == "" {
			t.Error("empty row string")
		}
	}
	if !stats.Within(agg.XAggregate.GBps(), 632, 0.02) {
		t.Errorf("X aggregate = %.0f", agg.XAggregate.GBps())
	}
	if !stats.Within(agg.AAggregate.GBps(), 206, 0.02) {
		t.Errorf("A aggregate = %.0f", agg.AAggregate.GBps())
	}
	if !stats.Within(agg.AllToAll.GBps(), 380, 0.05) {
		t.Errorf("all-to-all = %.0f", agg.AllToAll.GBps())
	}
	if !stats.Within(agg.InterleavedLatNs, 168, 0.06) {
		t.Errorf("interleaved latency = %.0f", agg.InterleavedLatNs)
	}
	if agg.InterleavedBW.GBps() != 69 {
		t.Errorf("interleaved bandwidth = %v", agg.InterleavedBW)
	}
}

// TestFigure4Surface checks the random-access sweep.
func TestFigure4Surface(t *testing.T) {
	pts := Figure4(e870())
	if len(pts) != 64 {
		t.Fatalf("points = %d", len(pts))
	}
	var peak float64
	for _, p := range pts {
		if v := p.Bandwidth.GBps(); v > peak {
			peak = v
		}
	}
	if !stats.Within(peak, 500, 0.05) {
		t.Errorf("peak random = %.0f, want ~500", peak)
	}
}

// TestFigure5Surface checks the FMA sweep's key features.
func TestFigure5Surface(t *testing.T) {
	pts := Figure5(e870())
	at := func(f, th int) float64 {
		for _, p := range pts {
			if p.FMAs == f && p.Threads == th {
				return p.FractionOfPeak
			}
		}
		t.Fatalf("missing point %d,%d", f, th)
		return 0
	}
	if at(12, 1) != 1 || at(6, 2) != 1 {
		t.Error("threads x FMAs = 12 should reach peak")
	}
	if at(6, 1) >= 1 {
		t.Error("6 chains on one thread should not reach peak")
	}
	if at(12, 8) >= at(12, 4) {
		t.Error("register pressure should degrade 12 FMAs x 8 threads")
	}
	if at(2, 3) >= at(2, 4) {
		t.Error("odd thread count should lose to even")
	}
}

// TestFigure6DepthSweep: deepest prefetch gives the lowest latency and
// the highest bandwidth (the Figure 6 conclusion).
func TestFigure6DepthSweep(t *testing.T) {
	pts := Figure6(e870(), 1<<16, nil)
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LatencyNs > pts[i-1].LatencyNs+0.5 {
			t.Errorf("latency rose at DSCR=%d: %.1f -> %.1f",
				pts[i].DSCR, pts[i-1].LatencyNs, pts[i].LatencyNs)
		}
		if pts[i].Bandwidth < pts[i-1].Bandwidth {
			t.Errorf("bandwidth fell at DSCR=%d", pts[i].DSCR)
		}
	}
	if ratio := pts[0].LatencyNs / pts[6].LatencyNs; ratio < 3 {
		t.Errorf("deepest/none latency ratio %.1f, want > 3", ratio)
	}
}

// TestFigure7StrideN: ~50 ns with detection off, ~14 ns at the deepest
// depth with it on.
func TestFigure7StrideN(t *testing.T) {
	pts := Figure7(e870(), 40000, nil)
	if len(pts) != 14 {
		t.Fatalf("points = %d", len(pts))
	}
	var offDeep, onDeep float64
	for _, p := range pts {
		if p.DSCR == 7 {
			if p.StrideN {
				onDeep = p.LatencyNs
			} else {
				offDeep = p.LatencyNs
			}
		}
	}
	if offDeep < 45 || offDeep > 62 {
		t.Errorf("stride-N off at depth 7: %.1f ns, want ~50", offDeep)
	}
	if onDeep > 20 {
		t.Errorf("stride-N on at depth 7: %.1f ns, want ~14", onDeep)
	}
}

// TestFigure8DCBT: >25% gain on small blocks, negligible on large ones.
func TestFigure8DCBT(t *testing.T) {
	m := e870()
	pts := Figure8(m, []units.Bytes{1 * units.KiB, 512 * units.KiB}, 1<<19, nil)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	smallGain := pts[0].HintFrac / pts[0].PlainFrac
	largeGain := pts[1].HintFrac / pts[1].PlainFrac
	if smallGain < 1.25 {
		t.Errorf("DCBT gain on 1 KiB blocks = %.2fx, want > 1.25x", smallGain)
	}
	if largeGain > 1.05 {
		t.Errorf("DCBT gain on 512 KiB blocks = %.2fx, want negligible", largeGain)
	}
	for _, p := range pts {
		if p.PlainFrac <= 0 || p.HintFrac > 1 {
			t.Errorf("fractions out of range: %+v", p)
		}
	}
}
