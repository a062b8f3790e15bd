package memsys

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/units"
)

// PlacementKind selects a NUMA allocation policy — the "low-level
// operating system facilities" the paper uses to allocate memory on
// specific sockets for the Table IV measurements, and the policies the
// SpMV implementation exploits (partition-local matrices, per-socket
// replicated vectors).
type PlacementKind int

// Placement policies.
const (
	// PlaceLocal homes every page on the requesting chip.
	PlaceLocal PlacementKind = iota
	// PlaceOnChip homes every page on one fixed chip.
	PlaceOnChip
	// PlaceInterleaved round-robins pages across all chips.
	PlaceInterleaved
	// PlaceWeighted interleaves pages across chips proportionally to
	// per-chip weights — the rebalanced policy a degraded machine uses
	// so chips that lost memory channels receive fewer pages.
	PlaceWeighted
)

// String implements fmt.Stringer.
func (k PlacementKind) String() string {
	switch k {
	case PlaceLocal:
		return "local"
	case PlaceOnChip:
		return "on-chip"
	case PlaceInterleaved:
		return "interleaved"
	case PlaceWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("PlacementKind(%d)", int(k))
	}
}

// Placement is a concrete allocation policy.
type Placement struct {
	Kind PlacementKind
	// Chip is the target for PlaceOnChip and the requester for
	// PlaceLocal.
	Chip arch.ChipID
	// Granule is the interleave granule (page size); zero defaults to
	// 64 KiB, the system's base page.
	Granule units.Bytes
	// Chips is the socket count for interleaving.
	Chips int
	// Weights gives each chip's share of granules for PlaceWeighted;
	// Weights[i] granules in every round go to chip i. A zero weight
	// takes the chip out of the interleave entirely.
	Weights []int
}

// Interleaved spreads pages round-robin over chips.
func Interleaved(chips int) Placement {
	return Placement{Kind: PlaceInterleaved, Chips: chips}
}

// HomeFunc returns the address-to-home-chip mapping the machine walker
// consumes.
func (p Placement) HomeFunc() func(addr uint64) arch.ChipID {
	switch p.Kind {
	case PlaceLocal, PlaceOnChip:
		chip := p.Chip
		return func(uint64) arch.ChipID { return chip }
	case PlaceInterleaved:
		if p.Chips <= 0 {
			panic("memsys: interleaved placement needs a chip count")
		}
		granule := p.Granule
		if granule == 0 {
			granule = 64 * units.KiB
		}
		g := uint64(granule)
		n := uint64(p.Chips)
		return func(addr uint64) arch.ChipID {
			return arch.ChipID((addr / g) % n)
		}
	case PlaceWeighted:
		pattern := weightedPattern(p.Weights)
		granule := p.Granule
		if granule == 0 {
			granule = 64 * units.KiB
		}
		g := uint64(granule)
		n := uint64(len(pattern))
		return func(addr uint64) arch.ChipID {
			return pattern[(addr/g)%n]
		}
	default:
		panic(fmt.Sprintf("memsys: unknown placement %v", p.Kind))
	}
}

// weightedPattern expands per-chip weights into the repeating granule
// pattern weighted interleaving walks: weights {3,1} become the chip
// sequence [0 0 0 1]. It panics when no weight is positive.
func weightedPattern(weights []int) []arch.ChipID {
	var pattern []arch.ChipID
	for chip, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("memsys: negative interleave weight %d for chip %d", w, chip))
		}
		for i := 0; i < w; i++ {
			pattern = append(pattern, arch.ChipID(chip))
		}
	}
	if len(pattern) == 0 {
		panic("memsys: weighted placement needs at least one positive weight")
	}
	return pattern
}
