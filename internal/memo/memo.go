// Package memo is a content-addressed result cache: a byte-budgeted
// in-memory LRU with singleflight deduplication and an optional
// on-disk store, keyed by internal/canon fingerprints. It is the
// substrate that turns this repository's determinism contract into
// speed: every engine result is a pure function of fingerprinted
// inputs, so equal keys mean a recomputation can be skipped (warm
// runs) or shared (concurrent identical requests compute once).
//
// Three behaviours matter to correctness:
//
//   - Singleflight: concurrent Do calls with the same key run one
//     compute; the rest wait and share the result. Under the parallel
//     harness the four deg-* experiments race to derive the same
//     degraded machine — with singleflight the derivation happens once.
//
//   - Non-storable results never enter the cache and never satisfy
//     waiters: a compute that reports Store=false (a FAILED report, a
//     watchdog trip, a cancellation) returns its value to its own
//     caller only, and every waiter retries with its own compute. A
//     cancelled run therefore cannot poison the group — the other
//     requests redo the work under their own budgets.
//
//   - A compute that panics is detached before the panic propagates:
//     the inflight slot is removed and waiters retry. Panic isolation
//     stays where it belongs (the harness's safeRun wrapper); the
//     cache merely guarantees no goroutine blocks forever on a dead
//     leader.
//
// All methods are safe for concurrent use. Instrumentation lands in an
// obs scope when one is provided: hits, misses, stores, evictions,
// singleflight waits, current bytes/entries, and disk read/write
// timings for the on-disk store.
package memo

import (
	"sync"

	"repro/internal/canon"
	"repro/internal/obs"
)

// Result is what a compute callback hands back to Do.
type Result struct {
	// V is the computed value shared with waiters and stored in the
	// LRU when Store is true.
	V any
	// Cost is the value's size in bytes charged against the cache
	// budget; non-positive costs are charged as one byte.
	Cost int64
	// Store marks the result cacheable. FAILED, tripped or cancelled
	// computations must set it false: the value is returned to the
	// caller but never cached, and waiting duplicates recompute.
	Store bool
}

// Cache is a byte-budgeted LRU keyed by canonical fingerprints. Use
// New; the zero value is not ready.
type Cache struct {
	maxBytes int64
	scope    *obs.Registry // nil = uninstrumented (obs methods no-op on nil)
	disk     *diskStore    // nil = memory only

	mu       sync.Mutex
	entries  map[canon.Fingerprint]*entry
	inflight map[canon.Fingerprint]*flight
	bytes    int64
	// head is most recently used, tail least; sentinel-free list.
	head, tail *entry
}

type entry struct {
	key        canon.Fingerprint
	val        any
	cost       int64
	prev, next *entry
}

// flight is one in-progress compute plus everyone waiting on it.
type flight struct {
	done chan struct{} // closed when the leader finishes or panics
	val  any
	err  error
	// ok marks a completed, storable result waiters may consume;
	// false after a panic or a non-storable result, sending waiters
	// back to compute for themselves.
	ok bool
}

// New builds a cache. maxBytes bounds the in-memory LRU (<= 0 means
// unbounded); reg, when non-nil, receives counters under a
// "memo/<name>" scope.
func New(name string, maxBytes int64, reg *obs.Registry) *Cache {
	var scope *obs.Registry
	if reg != nil {
		scope = reg.Child("memo").Child(name)
	}
	return &Cache{
		maxBytes: maxBytes,
		scope:    scope,
		entries:  map[canon.Fingerprint]*entry{},
		inflight: map[canon.Fingerprint]*flight{},
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the cached value for key, or runs compute — once across
// all concurrent callers of the same key — and caches its result when
// Result.Store is true. The second return is true on a cache hit
// (including a hit satisfied by another caller's in-flight compute).
// Errors are returned to every caller of the generation that computed
// them; they are never cached.
func (c *Cache) Do(key canon.Fingerprint, compute func() (Result, error)) (any, bool, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.touch(e)
			c.mu.Unlock()
			c.scope.Counter("hits").Inc()
			return e.val, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.scope.Counter("singleflight_waits").Inc()
			<-f.done
			if f.err != nil {
				return nil, false, f.err
			}
			if f.ok {
				return f.val, true, nil
			}
			// The leader panicked or produced a non-storable result
			// (failed / cancelled); recompute under our own flag.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.scope.Counter("misses").Inc()
		return c.lead(key, f, compute)
	}
}

// lead runs one compute as the key's flight leader and publishes the
// outcome. On panic the flight is detached so waiters retry, then the
// panic continues to the caller (the harness's isolation wrapper).
func (c *Cache) lead(key canon.Fingerprint, f *flight, compute func() (Result, error)) (any, bool, error) {
	finished := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		if !finished {
			close(f.done) // panic path: f.ok stays false, waiters retry
		}
	}()

	res, err := compute()
	finished = true
	f.val, f.err = res.V, err
	f.ok = err == nil && res.Store
	if f.ok {
		c.insert(key, res.V, res.Cost)
	}
	close(f.done)
	return res.V, false, err
}

// insert stores a computed value and evicts from the LRU tail until
// the budget holds. A value costlier than the whole budget is not
// stored at all — evicting the entire cache to hold one entry would
// thrash.
func (c *Cache) insert(key canon.Fingerprint, val any, cost int64) {
	if cost <= 0 {
		cost = 1
	}
	if c.maxBytes > 0 && cost > c.maxBytes {
		c.scope.Counter("oversize_skips").Inc()
		return
	}
	c.mu.Lock()
	if old, ok := c.entries[key]; ok {
		// A racing leader of the same key already stored an identical
		// result (keys are content addresses); keep the resident one.
		c.touch(old)
		c.mu.Unlock()
		return
	}
	e := &entry{key: key, val: val, cost: cost}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += cost
	evicted := 0
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.tail != nil && c.tail != e {
		evicted++
		c.evict(c.tail)
	}
	bytes, entries := c.bytes, len(c.entries)
	c.mu.Unlock()
	c.scope.Counter("stores").Inc()
	c.scope.Counter("evictions").Add(uint64(evicted))
	c.scope.Gauge("bytes").Set(bytes)
	c.scope.Gauge("entries").Set(int64(entries))
}

// touch moves an entry to the front (most recently used). Callers hold
// c.mu.
func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evict removes an entry. Callers hold c.mu.
func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.cost
}
