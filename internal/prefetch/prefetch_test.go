package prefetch

import (
	"testing"
)

func drive(e *Engine, startLine, n int) (prefetched []uint64) {
	for i := 0; i < n; i++ {
		prefetched = append(prefetched, e.OnDemand(uint64(startLine+i)*LineSize)...)
	}
	return prefetched
}

func TestSequentialDetection(t *testing.T) {
	e := New(DefaultConfig())
	// First DetectAfter accesses: no prefetches yet.
	if got := drive(e, 0, 2); len(got) != 0 {
		t.Fatalf("prefetches before detection: %v", got)
	}
	// Third access completes detection and bursts depth lines ahead.
	got := e.OnDemand(2 * LineSize)
	if len(got) != DepthLines(7) {
		t.Fatalf("detection burst = %d lines, want %d", len(got), DepthLines(7))
	}
	if got[0] != 3*LineSize {
		t.Errorf("first prefetch at line %d, want 3", got[0]/LineSize)
	}
	if e.Detected() != 1 {
		t.Errorf("Detected = %d", e.Detected())
	}
}

func TestSteadyStateOnePerAccess(t *testing.T) {
	e := New(DefaultConfig())
	drive(e, 0, 3) // detect
	for i := 3; i < 10; i++ {
		got := e.OnDemand(uint64(i) * LineSize)
		if len(got) != 1 {
			t.Fatalf("steady-state access %d issued %d prefetches, want 1", i, len(got))
		}
		if got[0] != uint64(i+DepthLines(7))*LineSize {
			t.Errorf("access %d prefetched line %d, want %d", i, got[0]/LineSize, i+DepthLines(7))
		}
	}
}

func TestDSCRDepths(t *testing.T) {
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 4, 5: 6, 6: 8, 7: 12}
	for dscr, depth := range want {
		if got := DepthLines(dscr); got != depth {
			t.Errorf("DepthLines(%d) = %d, want %d", dscr, got, depth)
		}
	}
}

func TestDepthLinesPanics(t *testing.T) {
	for _, v := range []int{0, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DepthLines(%d) did not panic", v)
				}
			}()
			DepthLines(v)
		}()
	}
}

func TestDSCR1DisablesPrefetch(t *testing.T) {
	e := New(Config{DSCR: 1})
	if got := drive(e, 0, 100); len(got) != 0 {
		t.Errorf("DSCR=1 issued %d prefetches", len(got))
	}
}

func TestStrideNDisabledByDefault(t *testing.T) {
	e := New(DefaultConfig())
	var got []uint64
	for i := 0; i < 20; i++ {
		got = append(got, e.OnDemand(uint64(i*256)*LineSize)...)
	}
	if len(got) != 0 {
		t.Errorf("default engine prefetched a stride-256 stream: %d lines", len(got))
	}
}

func TestStrideNEnabledDetects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StrideN = true
	e := New(cfg)
	var got []uint64
	for i := 0; i < 10; i++ {
		got = append(got, e.OnDemand(uint64(i*256)*LineSize)...)
	}
	if len(got) == 0 {
		t.Fatal("stride-N engine did not detect a stride-256 stream")
	}
	// All prefetched lines must be on the stride.
	for _, p := range got {
		if (p/LineSize)%256 != 0 {
			t.Errorf("off-stride prefetch at line %d", p/LineSize)
		}
	}
}

func TestDecreasingStream(t *testing.T) {
	e := New(DefaultConfig())
	var got []uint64
	for i := 100; i > 80; i-- {
		got = append(got, e.OnDemand(uint64(i)*LineSize)...)
	}
	if len(got) == 0 {
		t.Fatal("decreasing stream not detected")
	}
	for _, p := range got {
		if p/LineSize >= 98 {
			t.Errorf("decreasing stream prefetched forward line %d", p/LineSize)
		}
	}
}

func TestHintSkipsDetection(t *testing.T) {
	e := New(DefaultConfig())
	burst := e.Hint(1000*LineSize, 64, 1)
	if len(burst) != DepthLines(7) {
		t.Fatalf("hint burst = %d, want %d", len(burst), DepthLines(7))
	}
	if burst[0] != 1000*LineSize {
		t.Errorf("hint burst starts at line %d, want 1000", burst[0]/LineSize)
	}
	if e.Detected() != 0 {
		t.Error("hinted stream counted as hardware-detected")
	}
	// Demand accesses continue the stream immediately.
	got := e.OnDemand(1000 * LineSize)
	if len(got) != 1 {
		t.Errorf("post-hint demand issued %d prefetches, want 1", len(got))
	}
}

func TestHintRespectsStreamEnd(t *testing.T) {
	e := New(DefaultConfig())
	var all []uint64
	all = append(all, e.Hint(0, 4, 1)...) // 4-line stream, depth 12
	for i := 0; i < 4; i++ {
		all = append(all, e.OnDemand(uint64(i)*LineSize)...)
	}
	for _, p := range all {
		if p/LineSize >= 4 {
			t.Errorf("prefetch beyond hinted stream end: line %d", p/LineSize)
		}
	}
	if len(all) != 4 {
		t.Errorf("hinted 4-line stream prefetched %d lines, want exactly 4", len(all))
	}
}

func TestHintBackward(t *testing.T) {
	e := New(DefaultConfig())
	burst := e.Hint(100*LineSize, 8, -1)
	if len(burst) == 0 {
		t.Fatal("backward hint produced nothing")
	}
	for _, p := range burst {
		line := int64(p / LineSize)
		if line > 100 || line < 93 {
			t.Errorf("backward hint prefetched line %d", line)
		}
	}
}

func TestHintDirectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad direction did not panic")
		}
	}()
	New(DefaultConfig()).Hint(0, 4, 2)
}

func TestStreamTableEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxStreams = 2
	e := New(cfg)
	// Start many candidate streams at distant addresses; table must not
	// grow beyond MaxStreams (indirectly: engine keeps working).
	for i := 0; i < 100; i++ {
		e.OnDemand(uint64(i) * 1 << 20)
	}
	if len(e.streams) > 2 {
		t.Errorf("stream table grew to %d entries", len(e.streams))
	}
}

func TestConcurrentStreams(t *testing.T) {
	e := New(DefaultConfig())
	// Interleave two sequential streams; both should be detected.
	for i := 0; i < 10; i++ {
		e.OnDemand(uint64(i) * LineSize)
		e.OnDemand(uint64(1<<20) + uint64(i)*LineSize)
	}
	if e.Detected() != 2 {
		t.Errorf("detected %d streams, want 2", e.Detected())
	}
}

func TestIssuedCounter(t *testing.T) {
	e := New(DefaultConfig())
	drive(e, 0, 20)
	if e.Issued() == 0 {
		t.Error("Issued not counted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	if cfg.DSCR != 7 || cfg.DetectAfter != 3 || cfg.MaxStreams != 16 {
		t.Errorf("zero config defaults = %+v", cfg)
	}
}
