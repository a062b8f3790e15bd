package fault

import (
	"testing"

	"repro/internal/canon"
)

// TestPlanFingerprint: nil, empty and populated plans hash apart, and
// event order matters (lane sparing composes, but the plan identity is
// ordered by contract).
func TestPlanFingerprint(t *testing.T) {
	var nilPlan *Plan
	empty := &Plan{}
	if nilPlan.Fingerprint() == empty.Fingerprint() {
		t.Error("nil and empty plans fingerprint alike")
	}
	a := &Plan{Events: []Event{{Kind: GuardCores, Chip: 0, N: 1}, {Kind: LoseChannels, Chip: 1, N: 1}}}
	b := &Plan{Events: []Event{{Kind: LoseChannels, Chip: 1, N: 1}, {Kind: GuardCores, Chip: 0, N: 1}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("event order is not part of the plan fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("plan fingerprint unstable")
	}
}

// Fingerprint returns the plan's canonical content address. A nil plan
// and an empty plan fingerprint differently from each other and from
// any non-trivial plan.
func (p *Plan) Fingerprint() canon.Fingerprint {
	h := canon.NewHasher("canon/fault-plan/v1")
	p.AppendCanon(h)
	return h.Sum()
}
