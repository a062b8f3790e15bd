package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("root")
	c := r.Counter("events")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("events") != c {
		t.Error("Counter lookup is not idempotent")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.SetMax(3)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge after SetMax(3) = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Load(); got != 11 {
		t.Errorf("gauge after SetMax(11) = %d, want 11", got)
	}
}

// TestNilRegistryIsInert: the disabled-instrumentation contract — every
// operation on a nil registry and its nil metrics is a no-op, and a nil
// snapshot is empty.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Child("x") != nil {
		t.Error("nil registry Child != nil")
	}
	c := r.Counter("c")
	if c != nil {
		t.Error("nil registry Counter != nil")
	}
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter loaded nonzero")
	}
	g := r.Gauge("g")
	g.Set(3)
	g.SetMax(9)
	if g.Load() != 0 {
		t.Error("nil gauge loaded nonzero")
	}
	d := r.Distribution("d")
	d.Observe(10)
	if d.Count() != 0 {
		t.Error("nil distribution counted")
	}
	if !r.Snapshot().Empty() {
		t.Error("nil registry snapshot not empty")
	}
	// A nil registry stays mountable: its handler serves the empty
	// snapshot instead of dereferencing.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Errorf("nil registry handler returned %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("nil registry handler body is not JSON: %v", err)
	}
	if !snap.Empty() {
		t.Errorf("nil registry handler served a non-empty snapshot: %+v", snap)
	}
}

func TestDistributionSummary(t *testing.T) {
	d := NewDistribution()
	for v := int64(1); v <= 1000; v++ {
		d.Observe(v)
	}
	s := d.summarize("lat")
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d, want 1000/1/1000", s.Count, s.Min, s.Max)
	}
	if want := 500.5; s.Mean != want {
		t.Errorf("mean = %g, want %g", s.Mean, want)
	}
	// Log2 buckets bound quantile error by one bucket width: p50 of
	// 1..1000 is ~500, inside bucket [256,511] or [512,1023].
	if s.P50 < 256 || s.P50 > 1023 {
		t.Errorf("p50 = %d, want within [256,1023]", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1000 {
		t.Errorf("p99 = %d, want within [512,1000]", s.P99)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: p50=%d p90=%d p99=%d", s.P50, s.P90, s.P99)
	}
}

func TestDistributionNegativeAndZero(t *testing.T) {
	d := NewDistribution()
	d.Observe(-5)
	d.Observe(0)
	d.Observe(3)
	s := d.summarize("x")
	if s.Min != -5 || s.Max != 3 || s.Sum != -2 {
		t.Errorf("min/max/sum = %d/%d/%d, want -5/3/-2", s.Min, s.Max, s.Sum)
	}
}

func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{1, 2, 3, 4, 255, 256, 1 << 40, math.MaxInt64} {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Errorf("value %d landed in bucket %d covering [%d,%d]", v, i, lo, hi)
		}
	}
	if bucketOf(0) != 0 || bucketOf(-1) != 0 {
		t.Error("non-positive values must land in bucket 0")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// the many-teams-incrementing-concurrently scenario — and checks nothing
// is lost. Run under -race this is the registry's data-race test.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry("root")
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// All workers share one counter, one gauge, one distribution,
			// and contend on child/metric creation too.
			scope := r.Child("team")
			c := scope.Counter("chunks")
			g := scope.Gauge("hwm")
			d := scope.Distribution("items")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				d.Observe(int64(i))
				if i%64 == 0 {
					_ = r.Snapshot() // snapshots race with updates safely
				}
			}
		}(w)
	}
	wg.Wait()
	scope := r.Child("team")
	if got := scope.Counter("chunks").Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := scope.Gauge("hwm").Load(); got != workers*perWorker-1 {
		t.Errorf("gauge hwm = %d, want %d", got, workers*perWorker-1)
	}
	d := scope.Distribution("items").summarize("items")
	if d.Count != workers*perWorker || d.Min != 0 || d.Max != perWorker-1 {
		t.Errorf("dist count/min/max = %d/%d/%d", d.Count, d.Min, d.Max)
	}
}

// TestSnapshotDeterminism: two registries fed identical updates in
// different orders snapshot identically, and JSON output is
// byte-identical — the contract the harness's per-experiment appendix
// relies on.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) Snapshot {
		r := NewRegistry("run")
		for _, name := range order {
			r.Child("exp").Counter(name).Add(uint64(len(name)))
		}
		r.Child("a").Gauge("g").Set(1)
		r.Child("b").Distribution("d").Observe(5)
		return r.Snapshot()
	}
	s1 := build([]string{"x", "y", "z"})
	s2 := build([]string{"z", "x", "y"})
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%v\n%v", s1, s2)
	}
	var b1, b2 bytes.Buffer
	if err := WriteJSON(&b1, s1); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b2, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("JSON exports differ for identical metric state")
	}
}

func TestCounterMapAndLookups(t *testing.T) {
	r := NewRegistry("run")
	r.Child("exp1").Child("walker").Counter("accesses").Add(10)
	r.Child("exp1").Counter("top").Add(1)
	s := r.Snapshot()
	m := s.CounterMap()
	if m["run/exp1/walker/accesses"] != 10 || m["run/exp1/top"] != 1 {
		t.Errorf("CounterMap = %v", m)
	}
}

func TestWriteMarkdown(t *testing.T) {
	r := NewRegistry("run")
	r.Child("des").Counter("events").Add(12)
	r.Child("des").Gauge("queue_depth_hwm").Set(4)
	r.Distribution("wall_ns") // created but unused: renders with count 0
	r.Distribution("lat").Observe(100)
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"`des/events` | 12", "`des/queue_depth_hwm` (gauge) | 4", "`lat` | 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q in:\n%s", want, out)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry("live")
	r.Counter("hits").Add(3)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if v, ok := snap.CounterMap()["live/hits"]; !ok || v != 3 {
		t.Errorf("served hits = %d, %v", v, ok)
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/?format=markdown", nil))
	if !strings.Contains(rec.Body.String(), "`hits` | 3") {
		t.Errorf("markdown body = %q", rec.Body.String())
	}
}

// Count returns the number of samples observed (0 on a nil
// Distribution).
func (d *Distribution) Count() uint64 {
	if d == nil {
		return 0
	}
	return d.count.Load()
}
