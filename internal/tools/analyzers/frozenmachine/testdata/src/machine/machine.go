// Package machine is a golden stand-in defining the frozen Machine
// type. Inside the defining package a constructor owns initialization,
// so its writes are legal; the call-graph cases live in
// testdata/callgraph.
package machine

// Latency holds per-level latencies.
type Latency struct{ LocalDRAMNs float64 }

// Spec describes a machine configuration.
type Spec struct{ Latency Latency }

// Machine is read-only after construction.
type Machine struct {
	Spec *Spec
	Seq  int
}

// New builds a Machine; writes inside a constructor are not flagged.
func New(s *Spec) *Machine {
	m := &Machine{}
	m.Spec = s
	m.Seq++
	m.Spec.Latency.LocalDRAMNs = 1
	return m
}
