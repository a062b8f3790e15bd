package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSequential(t *testing.T) {
	g := NewSequential(1024, 4)
	want := []uint64{1024, 1152, 1280, 1408}
	got := Collect(g, 0)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if _, ok := g.Next(); ok {
		t.Error("exhausted generator returned ok")
	}
	g.Reset()
	if a, ok := g.Next(); !ok || a != 1024 {
		t.Error("Reset did not restart")
	}
}

func TestStrided(t *testing.T) {
	g := NewStrided(0, 256, 3)
	got := Collect(g, 0)
	want := []uint64{0, 256 * LineSize, 512 * LineSize}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestChaseVisitsEveryLineOncePerLap(t *testing.T) {
	const lines = 257
	g := NewChase(0, lines, 2, 7)
	seen := map[uint64]int{}
	for {
		addr, ok := g.Next()
		if !ok {
			break
		}
		if addr%LineSize != 0 {
			t.Fatalf("unaligned address %d", addr)
		}
		seen[addr]++
	}
	if len(seen) != lines {
		t.Fatalf("visited %d distinct lines, want %d", len(seen), lines)
	}
	for addr, n := range seen {
		if n != 2 {
			t.Fatalf("line %d visited %d times, want 2 (laps)", addr, n)
		}
	}
}

func TestChaseIsSingleCycle(t *testing.T) {
	// Property: for any size and seed, the chase returns to its start
	// exactly after visiting all lines — Sattolo guarantees one cycle.
	f := func(seed uint64, sz uint8) bool {
		lines := int(sz)%500 + 2
		g := NewChase(0, lines, 1, seed)
		first, _ := g.Next()
		count := 1
		for {
			addr, ok := g.Next()
			if !ok {
				break
			}
			if addr == first && count < lines {
				return false // premature cycle
			}
			count++
		}
		return count == lines
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChaseDeterministic(t *testing.T) {
	a := Collect(NewChase(0, 100, 1, 9), 0)
	b := Collect(NewChase(0, 100, 1, 9), 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different chases")
		}
	}
}

// pointerChase is the reference chase: it follows the Sattolo next[]
// permutation one dependent hop at a time.
func pointerChase(base uint64, lines, laps int, seed uint64) []uint64 {
	next := make([]int32, lines)
	for i := range next {
		next[i] = int32(i)
	}
	r := rng.New(seed)
	for i := lines - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	out := make([]uint64, 0, lines*laps)
	cur := int32(0)
	for k := 0; k < lines*laps; k++ {
		out = append(out, base+uint64(cur)*LineSize)
		cur = next[cur]
	}
	return out
}

// TestChaseMatchesPointerChase pins the flattened visit order to the
// pointer-following reference, across laps and after Reset.
func TestChaseMatchesPointerChase(t *testing.T) {
	for _, tc := range []struct {
		lines, laps int
		seed        uint64
	}{{2, 3, 1}, {3, 1, 9}, {257, 2, 7}, {4096, 2, 42}} {
		want := pointerChase(1<<20, tc.lines, tc.laps, tc.seed)
		g := NewChase(1<<20, tc.lines, tc.laps, tc.seed)
		for pass := 0; pass < 2; pass++ {
			got := Collect(g, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lines=%d laps=%d seed=%d pass %d: flattened chase differs from the pointer chase",
					tc.lines, tc.laps, tc.seed, pass)
			}
			g.Reset()
		}
	}
}

func TestChaseWorkingSet(t *testing.T) {
	g := NewChase(0, 1024, 1, 1)
	if got := int64(g.WorkingSet()); got != 1024*LineSize {
		t.Errorf("working set = %d", got)
	}
}

func TestBlockedRandomCoversAll(t *testing.T) {
	const blocks, blockLines = 16, 8
	g := NewBlockedRandom(0, blocks, blockLines, 3)
	seen := map[uint64]bool{}
	var prevBlock int64 = -1
	pos := 0
	for {
		atStart := g.BlockStart()
		addr, ok := g.Next()
		if !ok {
			break
		}
		if wantStart := pos%blockLines == 0; atStart != wantStart {
			t.Fatalf("BlockStart = %v at access %d, want %v", atStart, pos, wantStart)
		}
		seen[addr] = true
		block := int64(addr / (blockLines * LineSize))
		if pos%blockLines == 0 {
			prevBlock = block
		} else if block != prevBlock {
			t.Fatalf("access %d crossed block boundary mid-block", pos)
		}
		pos++
	}
	if len(seen) != blocks*blockLines {
		t.Errorf("covered %d lines, want %d", len(seen), blocks*blockLines)
	}
}

func TestBlockedRandomSequentialWithinBlock(t *testing.T) {
	g := NewBlockedRandom(0, 4, 4, 11)
	addrs := Collect(g, 0)
	for i := 0; i < len(addrs); i += 4 {
		for j := 1; j < 4; j++ {
			if addrs[i+j] != addrs[i+j-1]+LineSize {
				t.Fatalf("block starting at %d not sequential", i)
			}
		}
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	g := NewInterleave(
		NewSequential(0, 2),
		NewSequential(1<<20, 3),
	)
	got := Collect(g, 0)
	want := []uint64{0, 1 << 20, LineSize, 1<<20 + LineSize, 1<<20 + 2*LineSize}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
			break
		}
	}
	g.Reset()
	if a, ok := g.Next(); !ok || a != 0 {
		t.Error("Reset failed")
	}
}

func TestCollectMax(t *testing.T) {
	g := NewSequential(0, 100)
	if got := Collect(g, 7); len(got) != 7 {
		t.Errorf("Collect max = %d addrs", len(got))
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewChase(0, 1, 1, 1) },
		func() { NewStrided(0, 0, 5) },
		func() { NewBlockedRandom(0, 0, 4, 1) },
		func() { NewBlockedRandom(0, 4, 0, 1) },
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
