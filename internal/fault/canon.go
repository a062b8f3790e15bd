package fault

import "repro/internal/canon"

// AppendCanon encodes the plan canonically into an ongoing hash: name,
// seed and every event with all fields in declaration order. Events
// hash in plan order — two plans with the same events in a different
// order are different plans (lane-sparing composes multiplicatively,
// but the derived spec's name records the order).
func (p *Plan) AppendCanon(h *canon.Hasher) {
	h.Section("fault-plan")
	if p == nil {
		h.Int(-1)
		return
	}
	h.Str(p.Name)
	h.U64(p.Seed)
	h.Int(len(p.Events))
	for _, e := range p.Events {
		h.Int(int(e.Kind))
		h.Int(int(e.A))
		h.Int(int(e.B))
		h.Int(int(e.Chip))
		h.Int(e.N)
		h.F64(e.Factor)
		h.F64(e.Read)
		h.F64(e.Write)
		h.F64(e.ReplayNs)
	}
}
