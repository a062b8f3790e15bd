package arch

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestTableI verifies the POWER7 vs POWER8 comparison the paper presents
// as Table I.
func TestTableI(t *testing.T) {
	p7 := POWER7(8, 3.8)
	p8 := POWER8(12, 4.0)

	if p7.ThreadsPerCore != 4 || p8.ThreadsPerCore != 8 {
		t.Errorf("threads/core: P7=%d P8=%d, want 4/8", p7.ThreadsPerCore, p8.ThreadsPerCore)
	}
	if p7.L1D.Size != 32*units.KiB || p8.L1D.Size != 64*units.KiB {
		t.Errorf("L1D: P7=%v P8=%v, want 32/64 KiB", p7.L1D.Size, p8.L1D.Size)
	}
	if p7.L2.Size != 256*units.KiB || p8.L2.Size != 512*units.KiB {
		t.Errorf("L2: P7=%v P8=%v", p7.L2.Size, p8.L2.Size)
	}
	if p7.L3PerCore.Size != 4*units.MiB || p8.L3PerCore.Size != 8*units.MiB {
		t.Errorf("L3/core: P7=%v P8=%v", p7.L3PerCore.Size, p8.L3PerCore.Size)
	}
	if p7.IssueWidth != 8 || p8.IssueWidth != 10 {
		t.Errorf("issue width: P7=%d P8=%d", p7.IssueWidth, p8.IssueWidth)
	}
	if p7.CommitWidth != 6 || p8.CommitWidth != 8 {
		t.Errorf("commit width: P7=%d P8=%d", p7.CommitWidth, p8.CommitWidth)
	}
	if p7.LoadPorts != 2 || p8.LoadPorts != 4 {
		t.Errorf("load ports: P7=%d P8=%d", p7.LoadPorts, p8.LoadPorts)
	}
	if l3 := units.Bytes(p8.Cores) * p8.L3PerCore.Size; l3 != 96*units.MiB {
		t.Errorf("12-core POWER8 aggregate L3 = %v, want 96 MiB", l3)
	}
}

// TestCacheLineSize checks the constant 128-byte line across levels.
func TestCacheLineSize(t *testing.T) {
	p8 := POWER8(8, 4.35)
	for _, g := range []CacheGeom{p8.L1I, p8.L1D, p8.L2, p8.L3PerCore} {
		if g.LineSize != 128 {
			t.Errorf("line size %v, want 128", g.LineSize)
		}
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{Size: 64 * units.KiB, LineSize: 128, Assoc: 8}
	if got := g.Sets(); got != 64 {
		t.Errorf("64KiB/128B/8-way sets = %d, want 64", got)
	}
}

func TestCacheGeomSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible geometry did not panic")
		}
	}()
	CacheGeom{Size: 1000, LineSize: 128, Assoc: 3}.Sets()
}

// TestCentaurSpec checks Section II-A's Centaur numbers.
func TestCentaurSpec(t *testing.T) {
	c := Centaur()
	if c.L4Size != 16*units.MiB {
		t.Errorf("L4 = %v, want 16 MiB", c.L4Size)
	}
	if c.ReadLink.GBps() != 19.2 || c.WriteLink.GBps() != 9.6 {
		t.Errorf("links = %v/%v, want 19.2/9.6", c.ReadLink, c.WriteLink)
	}
	if c.MaxDRAM != 128*units.GiB {
		t.Errorf("max DRAM = %v", c.MaxDRAM)
	}
}

// TestE870Peaks verifies the headline Table II / Section IV numbers: a
// 64-core 4.35 GHz system delivering 2,227 GFLOP/s and 1,843 GB/s with a
// balance of 1.2.
func TestE870Peaks(t *testing.T) {
	s := E870()
	if s.TotalCores() != 64 || s.TotalThreads() != 512 {
		t.Fatalf("cores/threads = %d/%d, want 64/512", s.TotalCores(), s.TotalThreads())
	}
	if got := s.PeakDP().GFs(); math.Abs(got-2227.2) > 0.1 {
		t.Errorf("peak DP = %v GFLOP/s, want 2227.2", got)
	}
	if got := s.PeakMemoryBW().GBps(); math.Abs(got-1843.2) > 0.1 {
		t.Errorf("peak memory BW = %v GB/s, want 1843.2", got)
	}
	if got := s.PeakReadBW().GBps(); math.Abs(got-1228.8) > 0.1 {
		t.Errorf("peak read BW = %v, want 1228.8", got)
	}
	if got := s.PeakWriteBW().GBps(); math.Abs(got-614.4) > 0.1 {
		t.Errorf("peak write BW = %v, want 614.4", got)
	}
	if got := s.Balance(); math.Abs(got-1.208) > 0.01 {
		t.Errorf("balance = %v, want ~1.2", got)
	}
	if got := (s.Memory.ReadPeak() + s.Memory.WritePeak()).GBps(); math.Abs(got-230.4) > 0.1 {
		t.Errorf("per-socket sustainable = %v, want 230.4", got)
	}
	if s.L4Total() != units.Bytes(8)*128*units.MiB {
		t.Errorf("aggregate L4 = %v, want 1 GiB", s.L4Total())
	}
	if s.MemoryCapacity() != 4*units.TiB {
		t.Errorf("memory capacity = %v, want 4 TiB", s.MemoryCapacity())
	}
}

// TestMaxSMPPeaks verifies Section II-B's largest-configuration numbers:
// 6,144 GFLOP/s and 3,686 GB/s from a 192-way SMP with 16 TB of memory.
func TestMaxSMPPeaks(t *testing.T) {
	s := MaxPOWER8SMP()
	if s.TotalCores() != 192 {
		t.Fatalf("cores = %d, want 192", s.TotalCores())
	}
	if got := s.PeakDP().GFs(); math.Abs(got-6144) > 0.1 {
		t.Errorf("peak DP = %v, want 6144", got)
	}
	if got := s.PeakMemoryBW().GBps(); math.Abs(got-3686.4) > 0.1 {
		t.Errorf("peak BW = %v, want 3686.4", got)
	}
	if s.MemoryCapacity() != 16*units.TiB {
		t.Errorf("capacity = %v, want 16 TiB", s.MemoryCapacity())
	}
}

func TestDPFlopsPerCycle(t *testing.T) {
	if got := POWER8(8, 4.35).DPFlopsPerCycle(); got != 8 {
		t.Errorf("DP flops/cycle = %d, want 8 (2 pipes x 2 lanes x FMA)", got)
	}
}

func TestSMTModeFor(t *testing.T) {
	cases := []struct {
		n    int
		want SMTMode
	}{
		{1, ST}, {2, SMT2}, {3, SMT4}, {4, SMT4},
		{5, SMT8}, {6, SMT8}, {7, SMT8}, {8, SMT8},
	}
	for _, c := range cases {
		if got := SMTModeFor(c.n); got != c.want {
			t.Errorf("SMTModeFor(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSMTModeForPanics(t *testing.T) {
	for _, n := range []int{0, 9, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SMTModeFor(%d) did not panic", n)
				}
			}()
			SMTModeFor(n)
		}()
	}
}

func TestThreadSets(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 1}},
		{3, []int{2, 1}},
		{4, []int{2, 2}},
		{5, []int{3, 2}},
		{8, []int{4, 4}},
	}
	for _, c := range cases {
		got := ThreadSets(c.n)
		if len(got) != len(c.want) {
			t.Errorf("ThreadSets(%d) = %v, want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ThreadSets(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
}

// TestTopologyE870 verifies the Figure 1 wiring: two groups of four chips,
// a full X-bus crossbar inside each group and bonded triple A-bus lanes
// between paired chips.
func TestTopologyE870(t *testing.T) {
	topo := NewGroupedTopology(2, 4, 3)
	if topo.Chips != 8 {
		t.Fatalf("chips = %d", topo.Chips)
	}
	var xLinks, aLinks int
	for _, l := range topo.Links() {
		switch l.Kind {
		case XBus:
			xLinks++
			if l.Capacity().GBps() != 39.2 {
				t.Errorf("X link capacity %v", l.Capacity())
			}
		case ABus:
			aLinks++
			if math.Abs(l.Capacity().GBps()-38.4) > 1e-9 {
				t.Errorf("A bundle capacity %v, want 38.4", l.Capacity())
			}
		}
	}
	if xLinks != 12 {
		t.Errorf("X links = %d, want 12 (6 per group)", xLinks)
	}
	if aLinks != 4 {
		t.Errorf("A bundles = %d, want 4", aLinks)
	}
	if !topo.SameGroup(0, 3) || topo.SameGroup(0, 4) {
		t.Error("grouping wrong")
	}
	if !topo.Paired(0, 4) || topo.Paired(0, 5) || topo.Paired(1, 1) {
		t.Error("pairing wrong")
	}
	if _, ok := topo.LinkBetween(0, 1); !ok {
		t.Error("missing X link 0-1")
	}
	if _, ok := topo.LinkBetween(0, 4); !ok {
		t.Error("missing A bundle 0-4")
	}
	if _, ok := topo.LinkBetween(0, 5); ok {
		t.Error("unexpected direct link 0-5")
	}
	if _, ok := topo.LinkBetween(2, 2); ok {
		t.Error("self link")
	}
}

func TestTopologyAggregates(t *testing.T) {
	topo := NewGroupedTopology(2, 4, 3)
	if got := topo.AggregateCapacity(XBus).GBps(); math.Abs(got-940.8) > 1e-9 {
		t.Errorf("raw X aggregate = %v, want 940.8", got)
	}
	if got := topo.AggregateCapacity(ABus).GBps(); math.Abs(got-307.2) > 1e-9 {
		t.Errorf("raw A aggregate = %v, want 307.2", got)
	}
}

func TestTopologyPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGroupedTopology(0, 4, 3) },
		func() { NewGroupedTopology(2, 5, 3) },
		func() { NewGroupedTopology(5, 4, 3) },
		func() { NewGroupedTopology(2, 4, 0) },
		func() { NewGroupedTopology(2, 4, 3).Group(8) },
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

func TestTranslationReach(t *testing.T) {
	x := E870().Xlate
	if got := units.Bytes(x.ERATEntries) * x.ERATGranule; got != 3*units.MiB {
		t.Errorf("ERAT reach = %v, want 3 MiB (the Figure 2 spike position)", got)
	}
}

func TestWritePolicyString(t *testing.T) {
	if StoreThrough.String() != "store-through" || StoreIn.String() != "store-in" || Victim.String() != "victim" {
		t.Error("WritePolicy strings wrong")
	}
	if WritePolicy(99).String() != "WritePolicy(99)" {
		t.Error("unknown policy string wrong")
	}
}
