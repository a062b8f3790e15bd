package parallel

import (
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// countersOf flattens a registry into path->value, dropping the root
// name prefix for terser assertions.
func countersOf(reg *obs.Registry) map[string]uint64 {
	full := reg.Snapshot().CounterMap()
	out := make(map[string]uint64, len(full))
	for k, v := range full {
		out[k[len(reg.Name())+1:]] = v
	}
	return out
}

// distOf finds a distribution summary by walking child scopes.
func distOf(t *testing.T, reg *obs.Registry, path ...string) obs.DistSummary {
	t.Helper()
	s := reg.Snapshot()
	for _, p := range path[:len(path)-1] {
		i := 0
		for i < len(s.Children) && s.Children[i].Name != p {
			i++
		}
		if i == len(s.Children) {
			t.Fatalf("scope %q not found", p)
		}
		s = s.Children[i]
	}
	for _, d := range s.Distributions {
		if d.Name == path[len(path)-1] {
			return d
		}
	}
	t.Fatalf("distribution %q not found", path[len(path)-1])
	return obs.DistSummary{}
}

func TestTeamInstrumentDynamic(t *testing.T) {
	reg := obs.NewRegistry("t")
	team := NewTeam(4)
	defer team.Close()
	team.Instrument(reg)

	var visited atomic.Int64
	team.ParallelFor(1000, 10, func(lo, hi int) {
		visited.Add(int64(hi - lo))
	})
	if visited.Load() != 1000 {
		t.Fatalf("visited %d indices, want 1000", visited.Load())
	}

	c := countersOf(reg)
	if got := c["team_w4/dispatches"]; got != 1 {
		t.Errorf("dispatches = %d, want 1", got)
	}
	var chunks, items uint64
	for w := 0; w < 4; w++ {
		chunks += c["team_w4/worker"+string(rune('0'+w))+"/chunks"]
		items += c["team_w4/worker"+string(rune('0'+w))+"/items"]
	}
	if chunks != 100 {
		t.Errorf("total chunks = %d, want 100 (1000/grain 10)", chunks)
	}
	if items != 1000 {
		t.Errorf("total items = %d, want 1000", items)
	}
	if d := distOf(t, reg, "team_w4", "imbalance_permille"); d.Count != 1 || d.Min < 1000 {
		t.Errorf("imbalance dist = %+v, want one sample >= 1000", d)
	}
	if d := distOf(t, reg, "team_w4", "first_chunk_ns"); d.Count != 1 || d.Min < 0 {
		t.Errorf("first_chunk dist = %+v, want one non-negative sample", d)
	}
}

func TestTeamInstrumentStaticAndInline(t *testing.T) {
	reg := obs.NewRegistry("t")
	team := NewTeam(4)
	defer team.Close()
	team.Instrument(reg)

	team.StaticFor(100, func(_, _, _ int) {})
	// Inline path: the whole range fits one chunk, no handoff.
	team.ParallelFor(8, 100, func(_, _ int) {})

	c := countersOf(reg)
	if got := c["team_w4/dispatches"]; got != 2 {
		t.Errorf("dispatches = %d, want 2", got)
	}
	var items uint64
	for w := 0; w < 4; w++ {
		items += c["team_w4/worker"+string(rune('0'+w))+"/items"]
	}
	if items != 108 {
		t.Errorf("total items = %d, want 108", items)
	}
	// Static splits and inline runs record no imbalance sample.
	if d := distOf(t, reg, "team_w4", "imbalance_permille"); d.Count != 0 {
		t.Errorf("imbalance samples = %d, want 0", d.Count)
	}
}

func TestTeamInstrumentNilIsInert(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	team.Instrument(nil)
	if team.stats != nil {
		t.Fatal("nil registry must leave the team uninstrumented")
	}
	var visited atomic.Int64
	team.ParallelFor(100, 5, func(lo, hi int) { visited.Add(int64(hi - lo)) })
	if visited.Load() != 100 {
		t.Fatalf("visited %d, want 100", visited.Load())
	}
}

func TestInstrumentShared(t *testing.T) {
	reg := obs.NewRegistry("proc")
	InstrumentShared(reg)
	defer func() {
		// Detach so later tests and packages see uninstrumented teams.
		sharedMu.Lock()
		sharedObs = nil
		for _, st := range sharedTeams {
			st.t.stats = nil
			st.t.job.chunks = nil
			st.t.job.items = nil
		}
		sharedMu.Unlock()
	}()

	For(3, 300, 10, func(_, _ int) {})
	c := countersOf(reg)
	if got := c["parallel/team_w3/dispatches"]; got != 1 {
		t.Errorf("shared team dispatches = %d, want 1", got)
	}
	var items uint64
	for w := 0; w < 3; w++ {
		items += c["parallel/team_w3/worker"+string(rune('0'+w))+"/items"]
	}
	if items != 300 {
		t.Errorf("shared team items = %d, want 300", items)
	}
}
