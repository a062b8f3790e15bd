// Package memocache is a golden stand-in for a result cache handing
// out shared machine.Machine values: a cached machine is served to
// many concurrent experiments at once, so the read-only contract is
// what makes sharing race-free. Writes through a machine pulled out of
// a cache are flagged exactly like writes through a freshly built one.
package memocache

import "machine"

// Cache stands in for a memoizing store of derived machines.
type Cache struct {
	entries map[string]any
}

// Get returns the cached machine for key, if any.
func (c *Cache) Get(key string) (*machine.Machine, bool) {
	v, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return v.(*machine.Machine), true
}

// RehomeCached mutates a machine it does not own — every path flagged.
func RehomeCached(c *Cache, s *machine.Spec) {
	m, ok := c.Get("e870")
	if !ok {
		return
	}
	m.Spec = s // want `read-only after construction`
	m.Seq++    // want `read-only after construction`

	// Writing through the type assertion directly is still a write
	// through a Machine.
	c.entries["e870"].(*machine.Machine).Seq = 1 // want `read-only after construction`
}

// DeriveFresh is the sanctioned path: don't patch a cached machine,
// build a new one and cache that.
func DeriveFresh(c *Cache, s *machine.Spec) *machine.Machine {
	m := machine.New(s)
	c.entries["derived"] = m
	return m
}
