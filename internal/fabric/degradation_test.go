package fabric

import (
	"testing"

	"repro/internal/arch"
)

func TestDegradationFactorCanonical(t *testing.T) {
	d := NewDegradation().SpareLanes(3, 1, arch.XBus, 0.5)
	// The key is canonical: both endpoint orders see the derate.
	if d.Factor(1, 3, arch.XBus) != 0.5 || d.Factor(3, 1, arch.XBus) != 0.5 {
		t.Errorf("factor(1,3)=%g factor(3,1)=%g, want 0.5 both ways",
			d.Factor(1, 3, arch.XBus), d.Factor(3, 1, arch.XBus))
	}
	// Other links and kinds stay at full width.
	if d.Factor(1, 3, arch.ABus) != 1 || d.Factor(0, 1, arch.XBus) != 1 {
		t.Error("untouched links got derated")
	}
}

func TestDegradationCompose(t *testing.T) {
	d := NewDegradation().
		SpareLanes(0, 1, arch.XBus, 0.5).
		SpareLanes(1, 0, arch.XBus, 0.5)
	if got := d.Factor(0, 1, arch.XBus); got != 0.25 {
		t.Errorf("composed factor = %g, want 0.25 (multiplicative)", got)
	}
	if d.Links() != 1 {
		t.Errorf("Links = %d, want 1 (same canonical key)", d.Links())
	}
}

func TestDegradationNilSafe(t *testing.T) {
	var d *Degradation
	if d.Factor(0, 1, arch.XBus) != 1 || d.Degraded() || d.Links() != 0 {
		t.Error("nil overlay is not a healthy fabric")
	}
	if err := d.Validate(arch.E870().Topology); err != nil {
		t.Errorf("nil Validate: %v", err)
	}
}

func TestDegradationSpareLanesPanicsOnBadFactor(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpareLanes(%g) did not panic", f)
				}
			}()
			NewDegradation().SpareLanes(0, 1, arch.XBus, f)
		}()
	}
}

func TestDegradationValidate(t *testing.T) {
	topo := arch.E870().Topology
	if err := NewDegradation().SpareLanes(0, 1, arch.XBus, 0.5).Validate(topo); err != nil {
		t.Errorf("valid X-bus derate rejected: %v", err)
	}
	// Chips 0 and 4 sit in different groups: their link is an A-bus.
	if err := NewDegradation().SpareLanes(0, 4, arch.XBus, 0.5).Validate(topo); err == nil {
		t.Error("X-bus derate on an A-bus link validated")
	}
	if err := NewDegradation().SpareLanes(0, 3, arch.ABus, 0.5).Validate(topo); err == nil {
		t.Error("A-bus derate on an intra-group pair validated")
	}
}

func TestDegradedNetworkBandwidth(t *testing.T) {
	spec := arch.E870()
	calib := E870Calibration()
	healthy := New(spec.Topology, spec.Latency, calib)
	deg := NewDegraded(spec.Topology, spec.Latency, calib,
		NewDegradation().SpareLanes(0, 1, arch.XBus, 0.5))

	hp := healthy.PairBandwidth(0, 1, false)
	dp := deg.PairBandwidth(0, 1, false)
	if dp.GBps() != hp.GBps()/2 {
		t.Errorf("derated pair = %v, want half of %v", dp, hp)
	}
	// Untouched pairs are identical.
	if deg.PairBandwidth(2, 3, false) != healthy.PairBandwidth(2, 3, false) {
		t.Error("derating one link changed another pair")
	}
	// Aggregate X-bus bandwidth strictly drops; A-bus is untouched.
	if deg.AggregateBandwidth(arch.XBus).GBps() >= healthy.AggregateBandwidth(arch.XBus).GBps() {
		t.Error("aggregate X-bus bandwidth did not drop under lane sparing")
	}
	if deg.AggregateBandwidth(arch.ABus) != healthy.AggregateBandwidth(arch.ABus) {
		t.Error("X-lane sparing changed the A-bus aggregate")
	}
}

// Links returns the number of derated links.
func (d *Degradation) Links() int {
	if d == nil {
		return 0
	}
	return len(d.factors)
}
