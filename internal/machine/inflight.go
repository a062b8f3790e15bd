package machine

import "math/bits"

// inflightTable maps in-flight prefetch line addresses to their
// completion times. It replaces a map[uint64]float64 on the walker's
// per-access path: the population is small and bounded by the prefetch
// engine's stream capacity times its run-ahead depth, so a fixed-size
// open-addressing table with linear probing stays in cache and avoids
// the hashing and bucket overhead of the runtime map. The table grows
// (rehash at 3/4 load) only in the pathological case of entries going
// stale faster than demand consumes them.
type inflightTable struct {
	keys  []uint64 // line address + 1; 0 marks an empty slot
	vals  []float64
	shift uint // 64 - log2(len(keys)), for Fibonacci hashing
	count int
}

// newInflightTable sizes the table for the expected steady-state
// population (typically streams x depth), rounded up to a power of two
// with headroom so probes stay short.
func newInflightTable(expected int) *inflightTable {
	capacity := 64
	for capacity < 2*expected {
		capacity *= 2
	}
	t := &inflightTable{}
	t.init(capacity)
	return t
}

func (t *inflightTable) init(capacity int) {
	t.keys = make([]uint64, capacity)
	t.vals = make([]float64, capacity)
	t.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	t.count = 0
}

// slot returns the home slot of a line address.
func (t *inflightTable) slot(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the completion time booked for line.
//
//p8:hotpath
func (t *inflightTable) get(line uint64) (float64, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(line); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == 0 {
			return 0, false
		}
		if k == line+1 {
			return t.vals[i], true
		}
	}
}

// put inserts or overwrites the completion time for line.
//
//p8:hotpath
func (t *inflightTable) put(line uint64, done float64) {
	if 4*(t.count+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.slot(line); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == 0 {
			t.keys[i] = line + 1
			t.vals[i] = done
			t.count++
			return
		}
		if k == line+1 {
			t.vals[i] = done
			return
		}
	}
}

// del removes line if present, using backward-shift deletion so probe
// chains stay tombstone-free.
//
//p8:hotpath
func (t *inflightTable) del(line uint64) {
	mask := len(t.keys) - 1
	i := t.slot(line)
	for {
		k := t.keys[i]
		if k == 0 {
			return
		}
		if k == line+1 {
			break
		}
		i = (i + 1) & mask
	}
	t.count--
	j := i
	for {
		t.keys[i] = 0
		for {
			j = (j + 1) & mask
			if t.keys[j] == 0 {
				return
			}
			home := t.slot(t.keys[j] - 1)
			// Slot j's entry may fill the hole at i only if its home
			// slot does not lie in the cyclic interval (i, j] — moving
			// it earlier than its home would break its probe chain.
			inInterval := false
			if i <= j {
				inInterval = i < home && home <= j
			} else {
				inInterval = i < home || home <= j
			}
			if !inInterval {
				break
			}
		}
		t.keys[i] = t.keys[j]
		t.vals[i] = t.vals[j]
		i = j
	}
}

// grow doubles capacity and rehashes every live entry.
func (t *inflightTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(2 * len(oldKeys))
	for i, k := range oldKeys {
		if k != 0 {
			t.put(k-1, oldVals[i])
		}
	}
}
