package tlb

import (
	"testing"

	"repro/internal/arch"
)

func spec() arch.TranslationSpec { return arch.E870().Xlate }

func TestColdMissThenHits(t *testing.T) {
	x := New(spec(), arch.Page64K)
	if got := x.Translate(0); got != TLBMiss {
		t.Errorf("cold translate = %v, want TLB miss", got)
	}
	if got := x.Translate(128); got != ERATHit {
		t.Errorf("same-granule translate = %v, want ERAT hit", got)
	}
	if got := x.Translate(64 * 1024); got != TLBMiss {
		t.Errorf("new 64K page = %v, want TLB miss", got)
	}
}

func TestHugePageERATGranularity(t *testing.T) {
	x := New(spec(), arch.Page16M)
	x.Translate(0)
	// Same huge page, but a different 64 KiB ERAT granule: must be an
	// ERAT miss (refilled from the TLB), not a full TLB miss.
	if got := x.Translate(64 * 1024); got != ERATMiss {
		t.Errorf("different granule, same page = %v, want ERAT miss", got)
	}
	// Same granule again: ERAT hit.
	if got := x.Translate(64*1024 + 4096); got != ERATHit {
		t.Errorf("same granule = %v, want ERAT hit", got)
	}
}

// TestERATReachBoundary verifies the Figure 2 spike mechanism: with huge
// pages, working sets beyond 3 MiB (48 x 64 KiB) start missing the ERAT
// while still hitting the TLB.
func TestERATReachBoundary(t *testing.T) {
	x := New(spec(), arch.Page16M)
	const granule = 64 * 1024
	// Touch 96 granules (6 MiB) round-robin, twice the ERAT reach.
	var outcomes [3]int
	for lap := 0; lap < 3; lap++ {
		for g := 0; g < 96; g++ {
			outcomes[x.Translate(uint64(g)*granule)]++
		}
	}
	if outcomes[ERATMiss] == 0 {
		t.Error("no ERAT misses over a 2x-reach working set")
	}
	// All 96 granules live in a single 16 MiB page: at most one TLB miss.
	if outcomes[TLBMiss] != 1 {
		t.Errorf("TLB misses = %d, want 1 (single huge page)", outcomes[TLBMiss])
	}
}

// TestSmallWorkingSetAllERATHits verifies no spike below the reach.
func TestSmallWorkingSetAllERATHits(t *testing.T) {
	x := New(spec(), arch.Page16M)
	const granule = 64 * 1024
	for g := 0; g < 24; g++ { // 1.5 MiB, half the reach
		x.Translate(uint64(g) * granule)
	}
	for lap := 0; lap < 5; lap++ {
		for g := 0; g < 24; g++ {
			if got := x.Translate(uint64(g) * granule); got != ERATHit {
				t.Fatalf("lap %d granule %d: %v, want ERAT hit", lap, g, got)
			}
		}
	}
}

// TestTLBReach64K verifies that 64 KiB pages exhaust the 2048-entry TLB
// beyond 128 MiB, the mechanism behind the Figure 2 red curve's rise at
// large working sets.
func TestTLBReach64K(t *testing.T) {
	x := New(spec(), arch.Page64K)
	const page = 64 * 1024
	const pages = 4096 // 256 MiB, twice the TLB reach
	tlbMiss := 0
	for lap := 0; lap < 2; lap++ {
		for p := 0; p < pages; p++ {
			if x.Translate(uint64(p)*page) == TLBMiss {
				tlbMiss++
			}
		}
	}
	// Second lap must keep missing: sequential sweep over 2x capacity
	// with LRU evicts every entry before reuse.
	if tlbMiss < pages+pages/2 {
		t.Errorf("TLB misses = %d, want nearly 2x%d", tlbMiss, pages)
	}
}

func TestFlush(t *testing.T) {
	x := New(spec(), arch.Page64K)
	x.Translate(0)
	x.Flush()
	if got := x.Translate(0); got != TLBMiss {
		t.Errorf("post-flush translate = %v, want TLB miss", got)
	}
}

func TestTinyPageGranuleCap(t *testing.T) {
	// A hypothetical 4 KiB page must cap the ERAT granule at the page
	// size so granules never span pages.
	x := New(arch.TranslationSpec{ERATEntries: 48, ERATGranule: 64 * 1024, TLBEntries: 2048}, arch.PageSize(4096))
	x.Translate(0)
	if got := x.Translate(4096); got == ERATHit {
		t.Error("adjacent 4K page hit the ERAT; granule not capped at page size")
	}
}

func TestOutcomeString(t *testing.T) {
	if ERATHit.String() != "ERAT-hit" || ERATMiss.String() != "ERAT-miss" || TLBMiss.String() != "TLB-miss" {
		t.Error("Outcome strings wrong")
	}
}

func TestBadERATEntriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-multiple-of-8 ERATEntries did not panic")
		}
	}()
	New(arch.TranslationSpec{ERATEntries: 50, ERATGranule: 65536, TLBEntries: 2048}, arch.Page64K)
}
