package memo

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/canon"
	"repro/internal/obs"
)

func key(b byte) canon.Fingerprint {
	var f canon.Fingerprint
	f[0] = b
	return f
}

// storable returns a compute of n storable bytes, each b: the entry
// costs n bytes against the budget.
func storable(b byte, n int) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) { return bytes.Repeat([]byte{b}, n), true, nil }
}

func TestHitMiss(t *testing.T) {
	c := New("t", 0, nil)
	calls := 0
	compute := func() ([]byte, bool, error) {
		calls++
		return []byte("v"), true, nil
	}
	v, hit, err := c.DoBytes(key(1), nil, compute)
	if err != nil || hit || string(v) != "v" {
		t.Fatalf("first DoBytes = (%q, %v, %v), want (v, false, nil)", v, hit, err)
	}
	v, hit, err = c.DoBytes(key(1), nil, compute)
	if err != nil || !hit || string(v) != "v" {
		t.Fatalf("second DoBytes = (%q, %v, %v), want (v, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New("t", 0, nil)
	boom := errors.New("boom")
	if _, _, err := c.DoBytes(key(1), nil, func() ([]byte, bool, error) { return nil, false, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error result was cached (%d entries)", c.Len())
	}
	// The key is computable again after the failure.
	if v, _, err := c.DoBytes(key(1), nil, storable('k', 2)); err != nil || string(v) != "kk" {
		t.Fatalf("retry after error = (%q, %v)", v, err)
	}
}

func TestNonStorableNotCached(t *testing.T) {
	c := New("t", 0, nil)
	v, hit, err := c.DoBytes(key(1), nil, func() ([]byte, bool, error) { return []byte("failed"), false, nil })
	if err != nil || hit || string(v) != "failed" {
		t.Fatalf("DoBytes = (%q, %v, %v), want the non-storable bytes back", v, hit, err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("non-storable result entered the cache (%d entries, %d bytes)", c.Len(), c.Bytes())
	}
}

// TestLRUEviction fills a 10-byte budget and checks least-recently-used
// entries leave first, with a touch refreshing recency.
func TestLRUEviction(t *testing.T) {
	c := New("t", 10, nil)
	for b := byte(1); b <= 2; b++ {
		c.DoBytes(key(b), nil, storable(b, 4))
	}
	// Touch key 1 so key 2 is now least recently used.
	if _, hit, _ := c.DoBytes(key(1), nil, storable(0, 4)); !hit {
		t.Fatal("expected hit on key 1")
	}
	// 4+4+4 > 10: inserting key 3 must evict key 2 (LRU), not key 1.
	c.DoBytes(key(3), nil, storable(3, 4))
	if _, hit, _ := c.DoBytes(key(1), nil, storable(0, 4)); !hit {
		t.Error("recently used key 1 was evicted")
	}
	if _, hit, _ := c.DoBytes(key(3), nil, storable(0, 4)); !hit {
		t.Error("just-inserted key 3 was evicted")
	}
	recomputed := false
	c.DoBytes(key(2), nil, func() ([]byte, bool, error) {
		recomputed = true
		return []byte("2222"), true, nil
	})
	if !recomputed {
		t.Error("LRU key 2 was not evicted")
	}
	if c.Bytes() > 10 {
		t.Errorf("cache over budget: %d bytes", c.Bytes())
	}
}

func TestOversizeSkipped(t *testing.T) {
	c := New("t", 10, nil)
	c.DoBytes(key(1), nil, storable('s', 4))
	c.DoBytes(key(2), nil, storable('h', 11))
	if c.Len() != 1 {
		t.Fatalf("oversize entry was stored (%d entries)", c.Len())
	}
	if _, hit, _ := c.DoBytes(key(1), nil, storable(0, 4)); !hit {
		t.Error("storing an oversize value evicted the resident cache")
	}
}

func TestZeroCostCharged(t *testing.T) {
	c := New("t", 0, nil)
	c.DoBytes(key(1), nil, storable('v', 0))
	if c.Bytes() != 1 {
		t.Fatalf("empty entry charged %d bytes, want 1", c.Bytes())
	}
}

// TestSingleflight races many goroutines on one cold key: exactly one
// compute must run, everyone gets its value.
func TestSingleflight(t *testing.T) {
	c := New("t", 0, nil)
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.DoBytes(key(1), nil, func() ([]byte, bool, error) {
				calls.Add(1)
				<-gate // hold the flight open until all callers arrived
				return []byte("shared"), true, nil
			})
			if err != nil || string(v) != "shared" {
				errs <- errors.New("wrong value from singleflight")
			}
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times under singleflight, want 1", got)
	}
}

// waits reads a cache's singleflight_waits counter: tests spin on it to
// know a duplicate caller has actually parked on the flight (the
// counter increments just before parking) without resorting to sleeps.
func waits(reg *obs.Registry, name string) uint64 {
	snap := reg.Child("memo").Child(name).Snapshot()
	for _, c := range snap.Counters {
		if c.Name == "singleflight_waits" {
			return c.Value
		}
	}
	return 0
}

// TestNonStorableDoesNotPoisonWaiters is the cancellation contract: a
// leader whose result is non-storable (FAILED report, cancelled run)
// must not hand that result to waiting duplicates — they recompute.
func TestNonStorableDoesNotPoisonWaiters(t *testing.T) {
	reg := obs.NewRegistry("test")
	c := New("t", 0, reg)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var leaderDone, waiterRan atomic.Bool

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v, _, _ := c.DoBytes(key(1), nil, func() ([]byte, bool, error) {
			close(leaderIn)
			<-leaderGo
			leaderDone.Store(true)
			return []byte("cancelled"), false, nil
		})
		if string(v) != "cancelled" {
			t.Errorf("leader got %q, want its own cancelled bytes", v)
		}
	}()
	<-leaderIn // the next Do is guaranteed to join as a waiter
	go func() {
		defer wg.Done()
		v, _, err := c.DoBytes(key(1), nil, func() ([]byte, bool, error) {
			if !leaderDone.Load() {
				t.Error("waiter recomputed before the leader finished")
			}
			waiterRan.Store(true)
			return []byte("fresh"), true, nil
		})
		if err != nil || string(v) != "fresh" {
			t.Errorf("waiter got (%q, %v), want its own fresh bytes", v, err)
		}
	}()
	// Release the leader only once the duplicate has parked on the
	// flight, so the test exercises the waiter path, not a cold miss.
	for waits(reg, "t") == 0 {
		runtime.Gosched()
	}
	close(leaderGo)
	wg.Wait()
	if !waiterRan.Load() {
		t.Fatal("waiter consumed the non-storable result instead of recomputing")
	}
}

// TestPanicReleasesWaiters: a panicking leader must unblock waiters
// (they retry) and let the panic propagate to its own caller.
func TestPanicReleasesWaiters(t *testing.T) {
	reg := obs.NewRegistry("test")
	c := New("t", 0, reg)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		c.DoBytes(key(1), nil, func() ([]byte, bool, error) {
			close(leaderIn)
			<-leaderGo
			panic("leader died")
		})
	}()
	<-leaderIn
	go func() {
		defer wg.Done()
		v, _, err := c.DoBytes(key(1), nil, func() ([]byte, bool, error) {
			return []byte("recovered"), true, nil
		})
		if err != nil || string(v) != "recovered" {
			t.Errorf("waiter after panic got (%q, %v)", v, err)
		}
	}()
	for waits(reg, "t") == 0 {
		runtime.Gosched()
	}
	close(leaderGo)
	wg.Wait()
}

// TestCounters spot-checks the instrumentation contract.
func TestCounters(t *testing.T) {
	reg := obs.NewRegistry("test")
	c := New("reports", 8, reg)
	c.DoBytes(key(1), nil, storable('a', 4)) // miss + store
	c.DoBytes(key(1), nil, storable('a', 4)) // hit
	c.DoBytes(key(2), nil, storable('b', 8)) // miss + store + evict key 1
	c.DoBytes(key(3), nil, func() ([]byte, bool, error) { return []byte("x"), false, nil })

	snap := reg.Child("memo").Child("reports").Snapshot()
	want := map[string]uint64{"hits": 1, "misses": 3, "stores": 2, "evictions": 1}
	got := map[string]uint64{}
	for _, cnt := range snap.Counters {
		got[cnt.Name] = cnt.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("counter %s = %d, want %d", name, got[name], v)
		}
	}
}

// Bytes returns the resident cost total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
