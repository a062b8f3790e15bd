// Package tlb models POWER8 address translation for the latency
// experiments: a first-level ERAT that caches translations at a fixed
// 64 KiB granule regardless of the page size, backed by a TLB holding
// full-page entries. The fixed ERAT granule is what produces the Figure 2
// latency spike at a 3 MiB working set when 16 MiB huge pages are used
// (48 entries x 64 KiB = 3 MiB of reach), while the huge-page TLB reach is
// effectively unbounded for the measured working sets.
package tlb

import (
	"math/bits"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/units"
)

// Outcome classifies a translation.
type Outcome int

// Translation outcomes in increasing cost: ERAT hit (free), ERAT miss that
// hits the TLB, and a full TLB miss requiring a hardware table walk.
const (
	ERATHit Outcome = iota
	ERATMiss
	TLBMiss
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case ERATHit:
		return "ERAT-hit"
	case ERATMiss:
		return "ERAT-miss"
	default:
		return "TLB-miss"
	}
}

// TLB is the two-level translation model for one hardware thread.
type TLB struct {
	erat *cache.SetAssoc
	tlb  *cache.SetAssoc
}

// New builds a translation model for the given hardware spec and page
// size. The ERAT granule is capped at the page size (tiny pages would
// otherwise alias multiple pages into one granule entry).
func New(spec arch.TranslationSpec, page arch.PageSize) *TLB {
	granule := spec.ERATGranule
	if units.Bytes(page) < granule {
		granule = units.Bytes(page)
	}
	eratShift := uint(bits.TrailingZeros64(uint64(granule)))
	pageShift := uint(bits.TrailingZeros64(uint64(page)))
	// Eight sets for the ERAT (ways = entries/8, preserving the exact
	// reach that sets the Figure 2 spike position), 8-way for the TLB;
	// reach, not associativity, drives the behaviour the paper measures.
	if spec.ERATEntries%8 != 0 || spec.ERATEntries <= 0 {
		panic("tlb: ERATEntries must be a positive multiple of 8")
	}
	tlbSets := nextPow2(spec.TLBEntries / 8)
	return &TLB{
		erat: cache.NewRaw(8, spec.ERATEntries/8, eratShift),
		tlb:  cache.NewRaw(tlbSets, 8, pageShift),
	}
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Translate looks up addr, updating both levels' contents, and returns
// where the translation was found.
func (t *TLB) Translate(addr uint64) Outcome {
	// Each level fills on the probe that misses it.
	if hit, _, _ := t.erat.Access(addr); hit {
		return ERATHit
	}
	if hit, _, _ := t.tlb.Access(addr); hit {
		return ERATMiss
	}
	return TLBMiss
}

// Flush empties both levels.
func (t *TLB) Flush() {
	t.erat.Flush()
	t.tlb.Flush()
}
