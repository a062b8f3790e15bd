package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/rng"
)

func lineAddr(n int) uint64 { return uint64(n) * 128 }

func TestLookupMissThenHit(t *testing.T) {
	c := NewRaw(4, 2, 7)
	if hit, _, _ := c.Access(lineAddr(1)); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(lineAddr(1)); !hit {
		t.Error("line filled by a miss missed")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewRaw(1, 2, 7) // one set, two ways
	c.Insert(lineAddr(1))
	c.Insert(lineAddr(2))
	c.Access(lineAddr(1)) // make line 2 the LRU
	victim, evicted := c.Insert(lineAddr(3))
	if !evicted || victim != lineAddr(2) {
		t.Errorf("evicted %v (%d), want line 2", evicted, victim)
	}
	if !c.Contains(lineAddr(1)) || c.Contains(lineAddr(2)) || !c.Contains(lineAddr(3)) {
		t.Error("post-eviction contents wrong")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := NewRaw(1, 2, 7)
	c.Insert(lineAddr(1))
	c.Insert(lineAddr(2))
	c.Insert(lineAddr(1)) // refresh, no eviction
	victim, evicted := c.Insert(lineAddr(3))
	if !evicted || victim != lineAddr(2) {
		t.Errorf("refresh did not update LRU: evicted line %d", victim/128)
	}
}

func TestInsertPrefersEmptyWay(t *testing.T) {
	c := NewRaw(1, 4, 7)
	c.Insert(lineAddr(1))
	if _, evicted := c.Insert(lineAddr(2)); evicted {
		t.Error("eviction with empty ways available")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewRaw(2, 2, 7)
	c.Insert(lineAddr(4))
	if !c.Take(lineAddr(4)) {
		t.Error("Take missed present line")
	}
	if c.Take(lineAddr(4)) {
		t.Error("Take hit the line it dropped")
	}
	if c.Contains(lineAddr(4)) {
		t.Error("line still present after Take")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	c := NewRaw(7, 2, 7)
	// Insert more lines than capacity; everything must remain findable
	// immediately after its own insert and set mapping must be stable.
	for i := 0; i < 100; i++ {
		c.Insert(lineAddr(i))
		if !c.Contains(lineAddr(i)) {
			t.Fatalf("line %d not present immediately after insert", i)
		}
	}
}

func TestCapacityRespected(t *testing.T) {
	f := func(nLines uint8) bool {
		c := NewRaw(4, 2, 7)
		for i := 0; i < int(nLines); i++ {
			c.Insert(lineAddr(i))
		}
		resident := 0
		for i := 0; i < int(nLines); i++ {
			if c.Contains(lineAddr(i)) {
				resident++
			}
		}
		return resident <= c.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlush(t *testing.T) {
	c := NewRaw(2, 2, 7)
	c.Access(lineAddr(1))
	c.Access(lineAddr(1))
	c.Flush()
	if c.Contains(lineAddr(1)) {
		t.Error("Flush incomplete")
	}
	if hit, _, _ := c.Access(lineAddr(1)); hit {
		t.Error("access after Flush hit")
	}
}

// TestLineNumberLimit probes the largest line number a 32-bit way holds,
// at the 128-byte line granule and at the 16 MiB page granule the TLB
// indexes with, and requires the first line past it to panic instead of
// aliasing a smaller line.
func TestLineNumberLimit(t *testing.T) {
	for _, shift := range []uint{7, 24} {
		c := NewRaw(4, 2, shift)
		last := uint64(maxLineNumber) << shift
		if hit, _, _ := c.Access(last); hit {
			t.Errorf("shift %d: cold access to the last line hit", shift)
		}
		if !c.Contains(last) || c.Contains(0) {
			t.Errorf("shift %d: last line not held apart from line 0", shift)
		}
		if victim, evicted := c.Insert(last + 1<<shift - 1); evicted || victim != 0 {
			t.Errorf("shift %d: the last line's final byte evicted %d", shift, victim)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shift %d: a line past the limit did not panic", shift)
				}
			}()
			c.Access(last + 1<<shift)
		}()
	}
	if got := uint64(maxLineNumber+1) * 128; got != 512<<30-128 {
		t.Errorf("span at 128-byte lines = %d bytes, want 512 GiB less one line", got)
	}
}

func TestNewFromGeometry(t *testing.T) {
	g := arch.CacheGeom{Size: 64 * 1024, LineSize: 128, Assoc: 8}
	c := New(g)
	if c.Sets() != 64 || c.Ways() != 8 || c.Capacity() != 512 {
		t.Errorf("geometry: sets=%d ways=%d", c.Sets(), c.Ways())
	}
}

func TestNewRawPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRaw(0, 1, 7) },
		func() { NewRaw(1, 0, 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func newTestHierarchy() *Hierarchy {
	return NewHierarchy(arch.POWER8(8, 4.35), arch.Centaur(), 8)
}

func TestHierarchyLevels(t *testing.T) {
	h := newTestHierarchy()
	addr := uint64(1 << 30)
	if got := h.Read(addr, true); got != LevelDRAM {
		t.Errorf("cold read = %v, want DRAM", got)
	}
	if got := h.Read(addr, true); got != LevelL1 {
		t.Errorf("second read = %v, want L1", got)
	}
}

func TestHierarchyL4MemorySide(t *testing.T) {
	h := newTestHierarchy()
	addr := uint64(1 << 30)
	h.Read(addr, true) // DRAM -> fills L4
	// Evict from core caches by taking the line out directly.
	h.L1.Take(addr)
	h.L2.Take(addr)
	if got := h.Read(addr, true); got != LevelL4 {
		t.Errorf("read after core eviction = %v, want L4", got)
	}
}

func TestHierarchyRemoteHomeSkipsL4(t *testing.T) {
	h := newTestHierarchy()
	addr := uint64(1 << 30)
	h.Read(addr, false)
	h.L1.Take(addr)
	h.L2.Take(addr)
	if got := h.Read(addr, false); got != LevelDRAM {
		t.Errorf("remote-homed line hit %v, want DRAM (no local L4 fill)", got)
	}
}

// TestHierarchyWorkingSetPlateaus checks that growing working sets land in
// the expected level, mirroring the Figure 2 plateaus.
func TestHierarchyWorkingSetPlateaus(t *testing.T) {
	cases := []struct {
		lines     int
		wantLevel Level
	}{
		{256, LevelL1},          // 32 KiB
		{2048, LevelL2},         // 256 KiB
		{16384, LevelL3},        // 2 MiB
		{262144, LevelL3Remote}, // 32 MiB: beyond 8 MiB local L3, within 64 MiB chip L3
	}
	for _, c := range cases {
		h := newTestHierarchy()
		for i := 0; i < c.lines; i++ { // warm pass
			h.Read(lineAddr(i), true)
		}
		counts := map[Level]uint64{}
		for i := 0; i < c.lines; i++ { // measured pass
			counts[h.Read(lineAddr(i), true)]++
		}
		dominant, best := LevelDRAM, uint64(0)
		for l, n := range counts {
			if n > best {
				dominant, best = l, n
			}
		}
		if dominant != c.wantLevel {
			t.Errorf("working set %d lines: dominant level %v (counts %v), want %v",
				c.lines, dominant, counts, c.wantLevel)
		}
	}
}

func TestHierarchyInstallMakesL1Hit(t *testing.T) {
	h := newTestHierarchy()
	addr := uint64(4096)
	h.Install(addr)
	if got := h.Read(addr, true); got != LevelL1 {
		t.Errorf("read after Install = %v, want L1", got)
	}
}

func TestHierarchyContainsAny(t *testing.T) {
	h := newTestHierarchy()
	addr := uint64(8192)
	if h.ContainsAny(addr) {
		t.Error("empty hierarchy contains line")
	}
	h.Install(addr)
	if !h.ContainsAny(addr) {
		t.Error("installed line not found")
	}
}

// TestHierarchyCounters checks the level each read reports, which is
// what callers count: a cold read, a repeat, and a repeat after Flush.
func TestHierarchyCounters(t *testing.T) {
	h := newTestHierarchy()
	for i, want := range []Level{LevelDRAM, LevelL1} {
		if got := h.Read(0, true); got != want {
			t.Errorf("read %d = %v, want %v", i, got, want)
		}
	}
	h.Flush()
	if got := h.Read(0, true); got != LevelDRAM {
		t.Errorf("read after Flush = %v, want DRAM", got)
	}
}

func TestLevelString(t *testing.T) {
	want := map[Level]string{
		LevelL1: "L1", LevelL2: "L2", LevelL3: "L3",
		LevelL3Remote: "L3-remote", LevelL4: "L4", LevelDRAM: "DRAM",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Level %d String = %q, want %q", int(l), l.String(), s)
		}
	}
}

// stampSetAssoc is the reference directory: true LRU kept with a global
// stamp per way, the victim found by scanning for the oldest stamp. The
// way-ordered SetAssoc must make every decision this one makes.
type stampSetAssoc struct {
	sets, ways int
	lineShift  uint
	setMask    uint64
	lines, age []uint64
	stamp      uint64
}

func newStampSetAssoc(sets, ways int, lineShift uint) *stampSetAssoc {
	c := &stampSetAssoc{sets: sets, ways: ways, lineShift: lineShift,
		lines: make([]uint64, sets*ways), age: make([]uint64, sets*ways)}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

func (c *stampSetAssoc) index(addr uint64) (line uint64, base int) {
	line = addr>>c.lineShift + 1
	var set uint64
	if c.setMask != 0 || c.sets == 1 {
		set = (line - 1) & c.setMask
	} else {
		set = (line - 1) % uint64(c.sets)
	}
	return line, int(set) * c.ways
}

func (c *stampSetAssoc) Lookup(addr uint64) bool {
	line, base := c.index(addr)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			c.stamp++
			c.age[base+w] = c.stamp
			return true
		}
	}
	return false
}

func (c *stampSetAssoc) Contains(addr uint64) bool {
	line, base := c.index(addr)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			return true
		}
	}
	return false
}

func (c *stampSetAssoc) Insert(addr uint64) (uint64, bool) {
	line, base := c.index(addr)
	c.stamp++
	victimWay, victimAge := -1, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		switch {
		case c.lines[base+w] == line:
			c.age[base+w] = c.stamp
			return 0, false
		case c.lines[base+w] == 0:
			if victimAge != 0 {
				victimWay, victimAge = w, 0
			}
		case c.age[base+w] < victimAge:
			victimWay, victimAge = w, c.age[base+w]
		}
	}
	old := c.lines[base+victimWay]
	c.lines[base+victimWay] = line
	c.age[base+victimWay] = c.stamp
	if old == 0 {
		return 0, false
	}
	return (old - 1) << c.lineShift, true
}

func (c *stampSetAssoc) Invalidate(addr uint64) bool {
	line, base := c.index(addr)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			c.lines[base+w] = 0
			c.age[base+w] = 0
			return true
		}
	}
	return false
}

func (c *stampSetAssoc) Flush() {
	clear(c.lines)
	clear(c.age)
	c.stamp = 0
}

// TestSetAssocMatchesStampLRU drives the way-ordered directory and the
// stamp reference with the same seeded operation streams and requires
// identical outcomes after every operation.
func TestSetAssocMatchesStampLRU(t *testing.T) {
	geoms := []struct {
		name       string
		sets, ways int
	}{
		{"1 set", 1, 4},
		{"1 way", 8, 1},
		{"7 sets (modulo)", 7, 3},
		{"E870 L4 shape", 64, 16},
	}
	for _, g := range geoms {
		for seed := uint64(1); seed <= 3; seed++ {
			got, ref := NewRaw(g.sets, g.ways, 7), newStampSetAssoc(g.sets, g.ways, 7)
			r := rng.New(seed)
			// Three times the capacity keeps sets contended and full.
			span := 3 * g.sets * g.ways
			for op := 0; op < 20000; op++ {
				addr := lineAddr(r.Intn(span))
				fail := func(what string, a, b any) {
					t.Fatalf("%s seed %d op %d (addr line %d): %s = %v, reference %v",
						g.name, seed, op, addr/128, what, a, b)
				}
				switch k := r.Intn(100); {
				case k < 35:
					av, ae := got.Insert(addr)
					bv, be := ref.Insert(addr)
					if av != bv || ae != be {
						fail("Insert", [2]any{av, ae}, [2]any{bv, be})
					}
				case k < 70:
					ah, av, ae := got.Access(addr)
					bh := ref.Lookup(addr)
					var bv uint64
					var be bool
					if !bh {
						bv, be = ref.Insert(addr)
					}
					if ah != bh || av != bv || ae != be {
						fail("Access", [3]any{ah, av, ae}, [3]any{bh, bv, be})
					}
				case k < 95:
					a := got.Take(addr)
					b := ref.Lookup(addr)
					if b {
						ref.Invalidate(addr)
					}
					if a != b {
						fail("Take", a, b)
					}
				case k < 99:
					if a, b := got.Contains(addr), ref.Contains(addr); a != b {
						fail("Contains", a, b)
					}
				default:
					got.Flush()
					ref.Flush()
				}
				if a, b := got.Contains(addr), ref.Contains(addr); a != b {
					fail("Contains after op", a, b)
				}
			}
			for i := 0; i < span; i++ {
				if a, b := got.Contains(lineAddr(i)), ref.Contains(lineAddr(i)); a != b {
					t.Fatalf("%s seed %d: final contents differ at line %d", g.name, seed, i)
				}
			}
		}
	}
}

// refHierarchy is the probe-then-fill walk over stamp directories: every
// level is looked up first, then filled, with castouts last. Read's
// single-probe walk must reach the same level and leave every directory
// in the same state.
type refHierarchy struct {
	l1, l2, l3, l3v, l4 *stampSetAssoc
	disableVictim       bool
}

func (h *refHierarchy) read(addr uint64, l4Homed bool) Level {
	var level Level
	switch {
	case h.l1.Lookup(addr):
		level = LevelL1
	case h.l2.Lookup(addr):
		level = LevelL2
	case h.l3.Lookup(addr):
		h.l3.Invalidate(addr)
		level = LevelL3
	case !h.disableVictim && h.l3v.Lookup(addr):
		h.l3v.Invalidate(addr)
		level = LevelL3Remote
	case l4Homed && h.l4.Lookup(addr):
		level = LevelL4
	default:
		level = LevelDRAM
	}
	if level == LevelDRAM && l4Homed {
		h.l4.Insert(addr)
	}
	if level != LevelL1 {
		h.install(addr)
	}
	return level
}

func (h *refHierarchy) install(addr uint64) {
	h.l1.Insert(addr)
	if cast, ok := h.l2.Insert(addr); ok {
		if spill, ok := h.l3.Insert(cast); ok && !h.disableVictim {
			h.l3v.Insert(spill)
		}
	}
}

// TestHierarchyMatchesProbeThenFill runs seeded reads and installs
// through a reduced hierarchy (every level small enough to evict) and
// the stamp reference, with the victim L3 on and off.
func TestHierarchyMatchesProbeThenFill(t *testing.T) {
	type geom struct{ sets, ways int }
	shape := []geom{{2, 2}, {4, 2}, {8, 2}, {7, 2}, {16, 4}} // L1, L2, L3, victim L3, L4
	for _, disable := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			dirs := make([]*SetAssoc, len(shape))
			refs := make([]*stampSetAssoc, len(shape))
			for i, g := range shape {
				dirs[i], refs[i] = NewRaw(g.sets, g.ways, 7), newStampSetAssoc(g.sets, g.ways, 7)
			}
			h := &Hierarchy{L1: dirs[0], L2: dirs[1], L3Local: dirs[2], L3Victim: dirs[3], L4: dirs[4], DisableVictim: disable}
			ref := &refHierarchy{refs[0], refs[1], refs[2], refs[3], refs[4], disable}
			r := rng.New(seed)
			for op := 0; op < 20000; op++ {
				addr := lineAddr(r.Intn(200))
				if r.Intn(10) == 0 {
					h.Install(addr)
					ref.install(addr)
				} else {
					homed := r.Intn(4) != 0
					if a, b := h.Read(addr, homed), ref.read(addr, homed); a != b {
						t.Fatalf("victim off=%v seed %d op %d: Read = %v, reference %v", disable, seed, op, a, b)
					}
				}
				// Every probe that changed a level shows in its contents.
				for i := range dirs {
					if a, b := dirs[i].Contains(addr), refs[i].Contains(addr); a != b {
						t.Fatalf("victim off=%v seed %d op %d: level %d holds line %d = %v, reference %v",
							disable, seed, op, i, addr/128, a, b)
					}
				}
			}
			for i := range dirs {
				for l := 0; l < 200; l++ {
					if dirs[i].Contains(lineAddr(l)) != refs[i].Contains(lineAddr(l)) {
						t.Fatalf("victim off=%v seed %d: level %d contents differ at line %d", disable, seed, i, l)
					}
				}
			}
		}
	}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Capacity returns the number of lines the cache can hold.
func (c *SetAssoc) Capacity() int { return c.sets * c.ways }
