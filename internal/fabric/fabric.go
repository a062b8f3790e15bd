// Package fabric models the POWER8 SMP interconnect of Section III-B: the
// X-bus crossbar inside each 4-chip group, the bonded A-bus lanes between
// groups, the routing asymmetry the paper highlights (a single permitted
// route inside a group, multiple routes between groups), and the
// calibrated effective bandwidths of Table IV.
package fabric

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/units"
)

// HopKind labels one hop of a route.
type HopKind int

// Route hop kinds.
const (
	HopX HopKind = iota
	HopA
)

// String implements fmt.Stringer.
func (k HopKind) String() string {
	if k == HopX {
		return "X"
	}
	return "A"
}

// Route is a sequence of hops between two chips; an empty route means the
// chips are the same.
type Route struct {
	Src, Dst arch.ChipID
	Hops     []HopKind
}

// Calibration holds the fabric's measured protocol efficiencies. The raw
// link capacities come from the topology; these factors are fitted to the
// Table IV measurements and are the only non-mechanistic inputs:
//
//   - UniEfficiency: data efficiency of a single route driven in one
//     direction (X-bus chip0->chip1 sustains 30 of 39.2 GB/s raw = 0.765).
//   - SatEfficiency: per-direction efficiency when many links run
//     saturated in both directions (X-bus aggregate 632 of 940.8 raw =
//     0.672; the A-bus aggregate independently gives 206/307.2 = 0.670).
//   - BiDirFactor: per-direction derate when one chip pair exchanges
//     traffic both ways (chip0<->chip1 bidirectional 53 vs 2x30 = 0.88;
//     inter-group pairs give 0.91-0.97; 0.92 is the compromise).
//   - InterGroupRouteCapGBs: usable raw route capacity between two chips
//     in different groups. The direct bonded A-bus provides 38.4 GB/s and
//     the routing protocol adds limited spillover through neighbour
//     chips' A-bundles; 58.8 GB/s reproduces the measured 45 GB/s
//     (58.8 x 0.765) for both paired and non-paired chips.
//   - ChipInterleavedAbsorbGBs: the sustained rate one chip's cores
//     absorb when its accesses interleave over every chip's memory
//     (Table IV row "Chip0 <-> interleaved": 69 GB/s). This is a
//     requester-side limit, not a link limit.
type Calibration struct {
	UniEfficiency            float64
	SatEfficiency            float64
	BiDirFactor              float64
	InterGroupRouteCapGBs    float64
	ChipInterleavedAbsorbGBs float64
}

// E870Calibration returns the efficiencies fitted to Table IV.
func E870Calibration() Calibration {
	return Calibration{
		UniEfficiency:            0.765,
		SatEfficiency:            0.672,
		BiDirFactor:              0.92,
		InterGroupRouteCapGBs:    58.8,
		ChipInterleavedAbsorbGBs: 69,
	}
}

// Network is the SMP interconnect model for one system.
type Network struct {
	topo  *arch.Topology
	lat   arch.UncoreLatency
	calib Calibration
	deg   *Degradation
}

// New assembles the healthy network model.
func New(topo *arch.Topology, lat arch.UncoreLatency, calib Calibration) *Network {
	return NewDegraded(topo, lat, calib, nil)
}

// NewDegraded assembles a network whose links carry the lane-sparing
// overlay deg (nil for a healthy fabric). The topology stays the
// healthy wiring; the overlay derates affected routes' raw bandwidth.
func NewDegraded(topo *arch.Topology, lat arch.UncoreLatency, calib Calibration, deg *Degradation) *Network {
	if err := deg.Validate(topo); err != nil {
		panic(err)
	}
	return &Network{topo: topo, lat: lat, calib: calib, deg: deg}
}

// Degradation returns the lane-sparing overlay (nil when healthy).
func (n *Network) Degradation() *Degradation { return n.deg }

// Calibration returns the fitted efficiency profile the network was
// built with (internal/canon hashes it into machine fingerprints).
func (n *Network) Calibration() Calibration { return n.calib }

// RouteBetween returns the latency-relevant route between two chips:
// none (same chip), a single X hop (same group), a single A hop (paired
// chips), or A+X (everything else). Bandwidth may use additional routes;
// latency always follows the shortest.
func (n *Network) RouteBetween(src, dst arch.ChipID) Route {
	r := Route{Src: src, Dst: dst}
	switch {
	case src == dst:
	case n.topo.SameGroup(src, dst):
		r.Hops = []HopKind{HopX}
	case n.topo.Paired(src, dst):
		r.Hops = []HopKind{HopA}
	default:
		r.Hops = []HopKind{HopA, HopX}
	}
	return r
}

// HopLatencyNs returns the added nanoseconds for crossing from src to dst,
// including the layout-dependent skews of Table IV. Zero for src == dst.
func (n *Network) HopLatencyNs(src, dst arch.ChipID) float64 {
	if src == dst {
		return 0
	}
	if n.topo.SameGroup(src, dst) {
		dist := posDistance(n.topo, src, dst)
		return n.lat.XHopNs + n.lat.IntraGroupSkewNs[dist]
	}
	dist := posDistance(n.topo, src, dst)
	base := n.lat.AHopNs
	if dist != 0 {
		base += n.lat.XHopNs
	}
	return base + n.lat.InterGroupSkewNs[dist]
}

// MinCrossLatencyNs returns the smallest hop latency between any two
// chips assigned to different shards, given shardOf[chip] = shard
// index. This is the conservative lookahead bound of the sharded DES:
// no cross-shard interaction can land sooner than the cheapest link
// crossing a shard boundary, so events within that window are safe to
// execute in parallel. The bound is computed per Network — lane
// sparing derates bandwidth, not latency, so degraded machines keep
// the healthy bound, but the method goes through HopLatencyNs so any
// future latency-affecting degradation is picked up automatically.
// It returns 0 when no chip pair crosses a shard boundary (a single
// shard), which the engine rejects for parallel runs.
func (n *Network) MinCrossLatencyNs(shardOf []int) float64 {
	if len(shardOf) != n.topo.Chips {
		panic(fmt.Sprintf("fabric: shard map covers %d chips, topology has %d", len(shardOf), n.topo.Chips))
	}
	min := 0.0
	for a := 0; a < n.topo.Chips; a++ {
		for b := a + 1; b < n.topo.Chips; b++ {
			if shardOf[a] == shardOf[b] {
				continue
			}
			l := n.HopLatencyNs(arch.ChipID(a), arch.ChipID(b))
			if min == 0 || l < min {
				min = l
			}
		}
	}
	return min
}

// posDistance is the position distance within a group, used to index the
// layout skew tables: 1..3 intra-group, 0..3 inter-group (0 = paired).
func posDistance(t *arch.Topology, a, b arch.ChipID) int {
	d := t.PositionInGroup(b) - t.PositionInGroup(a)
	if d < 0 {
		d = -d
	}
	return d
}

// PairBandwidth returns the effective memory-read bandwidth between two
// distinct chips. With bidirectional=false a single direction is driven
// (the Table IV "one-direction" column); with bidirectional=true both
// directions run and the returned figure is the two-direction total.
func (n *Network) PairBandwidth(src, dst arch.ChipID, bidirectional bool) units.Bandwidth {
	if src == dst {
		panic(fmt.Sprintf("fabric: PairBandwidth needs distinct chips, got %d", src))
	}
	var rawGBs float64
	if n.topo.SameGroup(src, dst) {
		// Single permitted route inside a group, derated when the X-bus
		// between the pair is running on spared lanes.
		rawGBs = arch.XBusLaneGBs * n.deg.Factor(src, dst, arch.XBus)
	} else {
		rawGBs = n.interGroupRouteCapGBs(src, dst)
	}
	oneWay := rawGBs * n.calib.UniEfficiency
	if !bidirectional {
		return units.GBps(oneWay)
	}
	return units.GBps(2 * oneWay * n.calib.BiDirFactor)
}

// interGroupRouteCapGBs returns the usable raw route capacity between
// two chips in different groups: the calibrated healthy cap, reduced by
// whatever the route's direct A-bundle (the bonded lanes between src
// and its same-position partner in dst's group) lost to lane sparing.
// The protocol's spillover through neighbour chips' bundles is left
// intact — it rides links the sparing event did not touch.
func (n *Network) interGroupRouteCapGBs(src, dst arch.ChipID) float64 {
	partner := arch.ChipID(n.topo.Group(dst)*n.topo.ChipsPerGroup + n.topo.PositionInGroup(src))
	capGBs := n.calib.InterGroupRouteCapGBs
	f := n.deg.Factor(src, partner, arch.ABus)
	if f < 1 {
		if l, ok := n.topo.LinkBetween(src, partner); ok {
			capGBs -= l.Capacity().GBps() * (1 - f)
		}
	}
	return capGBs
}

// AggregateBandwidth returns the sustained bidirectional bandwidth of all
// links of a kind when every core in the system drives them (the Table IV
// "X-Bus Aggregate" and "A-Bus Aggregate" rows), counting spared lanes
// out of the raw capacity.
func (n *Network) AggregateBandwidth(kind arch.LinkKind) units.Bandwidth {
	var raw float64
	if n.deg.Degraded() {
		for _, l := range n.topo.Links() {
			if l.Kind == kind {
				raw += 2 * float64(l.Capacity()) * n.deg.Factor(l.A, l.B, kind)
			}
		}
	} else {
		raw = float64(n.topo.AggregateCapacity(kind))
	}
	return units.Bandwidth(raw * n.calib.SatEfficiency)
}

// InterleavedAbsorb returns the bandwidth one chip sustains when reading
// memory interleaved across every chip in the system.
func (n *Network) InterleavedAbsorb() units.Bandwidth {
	return units.GBps(n.calib.ChipInterleavedAbsorbGBs)
}

// LinkShares describes, for uniform all-to-all interleaved traffic, the
// fraction of delivered bytes that crosses each link class.
type LinkShares struct {
	X float64
	A float64
}

// AllToAllShares computes the link-class crossing fractions for traffic
// uniformly interleaved over all chips (each chip addresses every chip's
// memory, including its own, with equal weight).
func (n *Network) AllToAllShares() LinkShares {
	chips := n.topo.Chips
	var xCross, aCross, total float64
	for s := 0; s < chips; s++ {
		for d := 0; d < chips; d++ {
			total++
			r := n.RouteBetween(arch.ChipID(s), arch.ChipID(d))
			for _, h := range r.Hops {
				if h == HopX {
					xCross++
				} else {
					aCross++
				}
			}
		}
	}
	return LinkShares{X: xCross / total, A: aCross / total}
}

// AllToAll returns the system-wide sustained bandwidth for all-to-all
// interleaved traffic: the tightest link class bounds the total, derated
// by the bidirectional factor since every bundle carries traffic both
// ways (Table IV row "All-to-all interleaved").
func (n *Network) AllToAll() units.Bandwidth {
	shares := n.AllToAllShares()
	bound := func(kind arch.LinkKind, share float64) float64 {
		if share == 0 {
			return 0
		}
		return float64(n.AggregateBandwidth(kind)) * n.calib.BiDirFactor / share
	}
	xBound := bound(arch.XBus, shares.X)
	aBound := bound(arch.ABus, shares.A)
	min := xBound
	if aBound > 0 && (min == 0 || aBound < min) {
		min = aBound
	}
	return units.Bandwidth(min)
}
