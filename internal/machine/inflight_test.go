package machine

import (
	"math/rand"
	"testing"
)

// TestInflightTableMatchesMap drives the open-addressing table with a
// randomized workload mirrored into a plain map and requires identical
// behaviour throughout, including across growth and heavy deletion.
func TestInflightTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	tab := newInflightTable(16)
	ref := map[uint64]float64{}
	// Line addresses cluster the way prefetch streams do: a few bases
	// with sequential runs, so probe chains actually collide.
	line := func() uint64 {
		base := uint64(r.Intn(8)) << 20
		return base + uint64(r.Intn(200))*128
	}
	for op := 0; op < 20000; op++ {
		l := line()
		switch r.Intn(3) {
		case 0:
			v := r.Float64() * 1e6
			tab.put(l, v)
			ref[l] = v
		case 1:
			got, ok := tab.get(l)
			want, wok := ref[l]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: get(%d) = (%v, %v), want (%v, %v)", op, l, got, ok, want, wok)
			}
		case 2:
			tab.del(l)
			delete(ref, l)
		}
		if tab.len() != len(ref) {
			t.Fatalf("op %d: len = %d, map has %d", op, tab.len(), len(ref))
		}
	}
	for l, want := range ref {
		if got, ok := tab.get(l); !ok || got != want {
			t.Fatalf("final scan: get(%d) = (%v, %v), want (%v, true)", l, got, ok, want)
		}
	}
}

func TestInflightTableZeroLine(t *testing.T) {
	tab := newInflightTable(4)
	if _, ok := tab.get(0); ok {
		t.Fatal("empty table claims to hold line 0")
	}
	tab.put(0, 42)
	if v, ok := tab.get(0); !ok || v != 42 {
		t.Fatalf("get(0) = (%v, %v), want (42, true)", v, ok)
	}
	tab.del(0)
	if _, ok := tab.get(0); ok || tab.len() != 0 {
		t.Fatal("line 0 survived deletion")
	}
}

func TestInflightTableGrowth(t *testing.T) {
	tab := newInflightTable(1) // minimum capacity, forces growth fast
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tab.put(i*128, float64(i))
	}
	if tab.len() != n {
		t.Fatalf("len = %d, want %d", tab.len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tab.get(i * 128); !ok || v != float64(i) {
			t.Fatalf("get(%d) = (%v, %v) after growth", i*128, v, ok)
		}
	}
}

func TestInflightTableDeleteAbsent(t *testing.T) {
	tab := newInflightTable(8)
	tab.put(128, 1)
	tab.del(256) // absent; same cluster region
	if v, ok := tab.get(128); !ok || v != 1 {
		t.Fatalf("deleting an absent key disturbed a live entry: (%v, %v)", v, ok)
	}
}

// len returns the number of live entries.
func (t *inflightTable) len() int { return t.count }
