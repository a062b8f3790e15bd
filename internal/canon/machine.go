package canon

import (
	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/memsys"
)

// Machine fingerprints a built machine: its spec, both calibration
// profiles, and the RAS degradation overlays it carries. This is the
// machine component of a memoized request key — two machines with equal
// fingerprints answer every model query and every deterministic
// simulation bit-identically, whatever constructor path produced them.
func Machine(m *machine.Machine) Fingerprint {
	h := NewHasher("canon/machine/v1")
	AppendSpec(h, m.Spec)
	AppendFabricCalibration(h, m.Net.Calibration())
	AppendMemsysCalibration(h, m.Mem.Calibration())
	appendFabricDegradation(h, m.Spec.Topology, m.Net.Degradation())
	appendMemsysDegradation(h, m.Spec, m.Mem.Degradation())
	return h.Sum()
}

// appendFabricDegradation encodes the lane-sparing overlay by walking
// the topology's links in construction order and recording each link's
// remaining-width factor — the overlay itself is map-backed, and this
// is its map-free canonical projection. A healthy (nil) overlay
// encodes as an explicit marker, not as an all-ones vector, so healthy
// and trivially-degraded machines still hash apart from a future
// overlay that derates nothing.
func appendFabricDegradation(h *Hasher, t *arch.Topology, d *fabric.Degradation) {
	h.Section("fabric-deg")
	if !d.Degraded() {
		h.Bool(false)
		return
	}
	h.Bool(true)
	for _, l := range t.Links() {
		h.F64(d.Factor(l.A, l.B, l.Kind))
	}
}

// appendMemsysDegradation encodes the memory overlay per chip in chip
// order plus its scalar derates.
func appendMemsysDegradation(h *Hasher, s *arch.SystemSpec, d *memsys.Degradation) {
	h.Section("memsys-deg")
	if !d.Degraded() {
		h.Bool(false)
		return
	}
	h.Bool(true)
	for c := 0; c < s.Topology.Chips; c++ {
		h.Int(d.LostChannels(arch.ChipID(c)))
	}
	h.F64(d.ReadDerate())
	h.F64(d.WriteDerate())
	h.F64(d.ReplayNs())
}
