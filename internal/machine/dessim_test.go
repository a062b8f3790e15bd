package machine

import (
	"testing"

	"repro/internal/stats"
)

// TestDESMatchesAnalyticModel cross-validates the two random-access
// engines: the discrete-event queueing simulation and the analytic
// Little's-law model must agree on the Figure 4 sweep within 25% at
// every point, and tightly at saturation.
func TestDESMatchesAnalyticModel(t *testing.T) {
	m := e870()
	const horizon = 200_000 // ns
	for _, p := range []struct{ threads, streams int }{
		{1, 1}, {1, 4}, {2, 2}, {4, 2}, {4, 8}, {8, 4}, {8, 8},
	} {
		des := m.SimulateRandomAccess(p.threads, p.streams, horizon).GBps()
		analytic := m.RandomAccessBandwidth(p.threads, p.streams).GBps()
		if !stats.Within(des, analytic, 0.25) {
			t.Errorf("threads=%d streams=%d: DES %.0f GB/s vs analytic %.0f GB/s",
				p.threads, p.streams, des, analytic)
		}
	}
	// At saturation both engines must sit at the calibrated ceiling.
	des := m.SimulateRandomAccess(8, 8, horizon).GBps()
	if !stats.Within(des, 500, 0.06) {
		t.Errorf("DES saturation = %.0f GB/s, want ~500", des)
	}
}

// TestDESMonotone: bandwidth is non-decreasing in concurrency, for the
// pooled reference model and for the sharded model the experiments run
// (at shards=1; every shard count is bit-identical).
func TestDESMonotone(t *testing.T) {
	m := e870()
	for _, model := range []struct {
		name string
		bw   func(streams int) float64
	}{
		{"pooled", func(streams int) float64 {
			return m.SimulateRandomAccess(4, streams, 100_000).GBps()
		}},
		{"sharded", func(streams int) float64 {
			return m.SimulateRandomAccessSharded(4, streams, 100_000, 1, nil, nil).GBps()
		}},
	} {
		prev := 0.0
		for _, streams := range []int{1, 2, 4, 8} {
			got := model.bw(streams)
			if got+1 < prev {
				t.Errorf("%s DES bandwidth fell at %d streams: %.0f after %.0f", model.name, streams, got, prev)
			}
			prev = got
		}
	}
}

func TestDESPanics(t *testing.T) {
	m := e870()
	for _, fn := range []func(){
		func() { m.SimulateRandomAccess(0, 1, 100) },
		func() { m.SimulateRandomAccess(1, 0, 100) },
		func() { m.SimulateRandomAccess(1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
