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
//   - Singleflight: concurrent DoBytes calls with the same key run one
//     compute; the rest wait and share the result. Two p8d jobs that
//     race on the same experiment report run the experiment once.
//
//   - Non-storable results never enter the cache and never satisfy
//     waiters: a compute that reports its bytes non-storable (a FAILED
//     report) returns them to its own caller only, and every waiter
//     retries with its own compute. A failed run therefore cannot
//     poison the group — the other requests redo the work themselves.
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
	data       []byte
	cost       int64
	prev, next *entry
}

// flight is one in-progress compute plus everyone waiting on it.
type flight struct {
	done chan struct{} // closed when the leader finishes or panics
	data []byte
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

// DoBytes returns the cached bytes for key, or computes them — once
// across all concurrent callers of the same key. The lookup runs
// through the memory LRU, then the on-disk store (when enabled), then
// compute; compute reports whether its bytes are storable. A disk hit
// is promoted into the memory LRU; a computed storable result is
// stored in memory and written back to disk. The second return is true
// on a memory hit (including one satisfied by another caller's
// in-flight compute). Errors are returned to every caller of the
// generation that computed them; they are never cached. The disk is
// best-effort — read and write failures count in the stats and fall
// through to compute.
//
// check, when non-nil, validates bytes read from disk before they are
// trusted: a corrupted or truncated entry (the store is plain files;
// anything can happen to them) counts as a disk error, is deleted so
// it cannot shadow the recomputation forever, and falls through to
// compute. In-memory and just-computed bytes are not re-checked — the
// process that produced them validated them by construction.
func (c *Cache) DoBytes(key canon.Fingerprint, check func([]byte) error, compute func() ([]byte, bool, error)) ([]byte, bool, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.touch(e)
			c.mu.Unlock()
			c.scope.Counter("hits").Inc()
			return e.data, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.scope.Counter("singleflight_waits").Inc()
			<-f.done
			if f.err != nil {
				return nil, false, f.err
			}
			if f.ok {
				return f.data, true, nil
			}
			// The leader panicked or produced a non-storable result
			// (a failed report); recompute under our own flag.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.scope.Counter("misses").Inc()
		return c.lead(key, f, check, compute)
	}
}

// lead runs one lookup-or-compute as the key's flight leader and
// publishes the outcome. On panic the flight is detached so waiters
// retry, then the panic continues to the caller (the harness's
// isolation wrapper).
func (c *Cache) lead(key canon.Fingerprint, f *flight, check func([]byte) error, compute func() ([]byte, bool, error)) ([]byte, bool, error) {
	finished := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		if !finished {
			close(f.done) // panic path: f.ok stays false, waiters retry
		}
	}()

	// A disk hit is storable by construction; a miss computes.
	data, store := c.diskRead(key, check)
	var err error
	if !store {
		if data, store, err = compute(); err == nil && store {
			c.diskWrite(key, data)
		}
	}
	finished = true
	f.data, f.err = data, err
	f.ok = err == nil && store
	if f.ok {
		c.insert(key, data)
	}
	close(f.done)
	if err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// insert stores computed bytes and evicts from the LRU tail until the
// budget holds. Each entry costs its length, and an empty one a byte.
// An entry costlier than the whole budget is not stored at all —
// evicting the entire cache to hold one entry would thrash.
func (c *Cache) insert(key canon.Fingerprint, data []byte) {
	cost := int64(len(data))
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
	e := &entry{key: key, data: data, cost: cost}
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
