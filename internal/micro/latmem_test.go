package micro

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/units"
)

// latencyCurvesPerPage is the reference LatencyCurves: a fresh Walker
// for every working set and page size, each with its own cache
// hierarchy. LatencyCurves must reproduce it bit for bit.
func latencyCurvesPerPage(m *machine.Machine, pages []arch.PageSize, sizes []units.Bytes, maxAccesses int, reg *obs.Registry) [][]LatPoint {
	curves := make([][]LatPoint, len(pages))
	for p := range curves {
		curves[p] = make([]LatPoint, 0, len(sizes))
	}
	for _, ws := range sizes {
		lines := int(ws / 128)
		if lines < 2 {
			continue
		}
		chase := trace.NewChase(0, lines, 1, 42)
		for p, page := range pages {
			w := m.NewWalker(machine.WalkerConfig{Page: page, DisablePrefetch: true, Obs: reg})
			chase.Reset()
			w.Run(chase, 0)
			chase.Reset()
			res := w.Run(chase, maxAccesses)
			curves[p] = append(curves[p], LatPoint{WorkingSet: ws, AvgNs: res.AvgNs()})
		}
	}
	return curves
}

var figure2Pages = []arch.PageSize{arch.Page64K, arch.Page16M}

// quickFigure2Sizes are the working sets p8repro -quick sweeps.
var quickFigure2Sizes = []units.Bytes{
	32 * units.KiB, 256 * units.KiB, 2 * units.MiB, 6 * units.MiB,
	32 * units.MiB, 120 * units.MiB, 384 * units.MiB,
}

// TestLatencyCurvesMatchWalkerPerPage holds the lane walker to the
// per-page walkers at the quick Figure 2 sizes plus the 3 MiB ERAT
// reach, 4 MiB past it and the 128 MiB L4 edge: every AvgNs must be
// equal as a float64, and the registries must hold the same counters.
func TestLatencyCurvesMatchWalkerPerPage(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick Figure 2 sweeps")
	}
	m := e870()
	// The extra sizes follow 384 MiB, so Reset also runs from the
	// largest working set down to smaller ones.
	sizes := append(append([]units.Bytes{}, quickFigure2Sizes...), 3*units.MiB, 4*units.MiB, 128*units.MiB)
	gotReg, wantReg := obs.NewRegistry("figure2"), obs.NewRegistry("figure2")
	got := LatencyCurves(m, figure2Pages, sizes, 250_000, gotReg)
	want := latencyCurvesPerPage(m, figure2Pages, sizes, 250_000, wantReg)
	for p := range want {
		if len(got[p]) != len(sizes) {
			t.Fatalf("page %v: %d points, want %d", figure2Pages[p], len(got[p]), len(sizes))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Errorf("page %v at %v: %v ns, per-page walker %v ns",
					figure2Pages[p], sizes[i], got[p][i].AvgNs, want[p][i].AvgNs)
			}
		}
	}
	if g, w := gotReg.Snapshot(), wantReg.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Errorf("counters differ:\n got %v\nwant %v", g.CounterMap(), w.CounterMap())
	}
}

// BenchmarkLatencyCurvesQuick runs the quick Figure 2 sweep, both page
// sizes. allocs/op counts the walker, the chases and the result slices
// only: the lane loop allocates nothing per access.
func BenchmarkLatencyCurvesQuick(b *testing.B) {
	m := e870()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LatencyCurves(m, figure2Pages, quickFigure2Sizes, 250_000, nil)
	}
	// Per page: a full warm lap, then at most 250,000 measured accesses.
	var accesses int
	for _, ws := range quickFigure2Sizes {
		lines := int(ws / trace.LineSize)
		accesses += lines + min(lines, 250_000)
	}
	b.ReportMetric(float64(len(figure2Pages)*accesses), "accesses/op")
}
