// Package machine is a golden stand-in for the real machine package:
// constructors may write, everything else must not.
package machine

// Machine mirrors the frozen-after-construction value.
type Machine struct {
	Sockets int
	ncores  int
}

// New is a constructor: its writes, direct and through helpers, are
// construction-time and clean.
func New(sockets int) *Machine {
	m := &Machine{}
	m.Sockets = sockets
	fill(m)
	return m
}

// NewTuned reaches calibrate, which is *only* reachable from
// constructors and therefore clean.
func NewTuned() *Machine {
	m := New(2)
	calibrate(m)
	return m
}

// fill is shared by New (fine) and Retune (not fine); the write is
// reachable post-construction through the latter.
func fill(m *Machine) {
	m.ncores = m.Sockets * 10 // want `write to machine\.Machine reachable after construction: machine\.fill assigns through the Machine and is reached by exported machine\.Retune \(entry chain machine\.Retune → machine\.fill\)`
}

// calibrate is constructor-only; no finding.
func calibrate(m *Machine) {
	m.ncores = 0
}

// Retune is the post-construction entry point that makes fill's write
// illegal.
func Retune(m *Machine) {
	fill(m)
}

// Grow writes directly from an exported method: the entry chain is the
// method itself.
func (m *Machine) Grow() {
	m.Sockets++ // want `write to machine\.Machine reachable after construction: \*machine\.Machine\.Grow assigns through the Machine and is reached by exported \*machine\.Machine\.Grow`
}

// Reseed carries an itemized waiver on the write line; the analyzer
// honors it.
func (m *Machine) Reseed() {
	m.Sockets = 0 //p8:allow frozenmachine: test-only reset helper, documented as not concurrency-safe
}
