package fabric

import (
	"fmt"
	"sort"

	"repro/internal/arch"
)

// linkKey canonically identifies one link of the topology (smaller chip
// id first).
type linkKey struct {
	a, b arch.ChipID
	kind arch.LinkKind
}

func keyFor(a, b arch.ChipID, kind arch.LinkKind) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a: a, b: b, kind: kind}
}

// Degradation is an overlay of RAS events on a healthy topology: for
// each affected link it records the fraction of the raw link bandwidth
// still available after lane sparing (the POWER8 X/A buses drop failed
// lanes and continue at reduced width rather than failing the link).
// The topology itself stays the healthy description; a Network built
// with a Degradation derates the affected routes. A nil *Degradation
// means a healthy fabric, and like the rest of a constructed Network
// the overlay is read-only: degraded and healthy machines run
// race-free side by side.
type Degradation struct {
	factors map[linkKey]float64
}

// NewDegradation returns an empty overlay (all links at full width).
func NewDegradation() *Degradation {
	return &Degradation{factors: map[linkKey]float64{}}
}

// SpareLanes records that the link between a and b of the given kind
// runs at `factor` of its raw bandwidth (0 < factor <= 1). Repeated
// calls on the same link compose multiplicatively. It returns the
// overlay for chaining.
func (d *Degradation) SpareLanes(a, b arch.ChipID, kind arch.LinkKind, factor float64) *Degradation {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("fabric: lane-spare factor %g out of (0,1]", factor))
	}
	k := keyFor(a, b, kind)
	cur, ok := d.factors[k]
	if !ok {
		cur = 1
	}
	d.factors[k] = cur * factor
	return d
}

// Factor returns the remaining raw-bandwidth fraction of a link; 1 for
// untouched links and on a nil overlay.
func (d *Degradation) Factor(a, b arch.ChipID, kind arch.LinkKind) float64 {
	if d == nil {
		return 1
	}
	if f, ok := d.factors[keyFor(a, b, kind)]; ok {
		return f
	}
	return 1
}

// Degraded reports whether the overlay derates any link.
func (d *Degradation) Degraded() bool {
	return d != nil && len(d.factors) > 0
}

// Validate checks every derated link against the topology: the pair
// must be wired with a link of the recorded kind. Links are checked in
// canonical (a, b, kind) order so that when several are invalid the
// error — which reaches API clients verbatim — always names the same
// one.
func (d *Degradation) Validate(topo *arch.Topology) error {
	if d == nil {
		return nil
	}
	keys := make([]linkKey, 0, len(d.factors))
	for k := range d.factors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.a != b.a {
			return a.a < b.a
		}
		if a.b != b.b {
			return a.b < b.b
		}
		return a.kind < b.kind
	})
	for _, k := range keys {
		l, ok := topo.LinkBetween(k.a, k.b)
		if !ok || l.Kind != k.kind {
			return fmt.Errorf("fabric: no %v link between chips %d and %d to spare lanes on", k.kind, k.a, k.b)
		}
	}
	return nil
}
