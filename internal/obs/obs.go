// Package obs is the reproduction's observability layer: a low-overhead
// metrics subsystem mirroring the hardware counters the paper reads off
// the real E870. The model's experiments are only as debuggable as their
// internals are visible — when a paper-vs-measured check drifts, the
// per-level hit counts, prefetch confirmations and queue depths say
// *why* — so the three hot layers (the DES engine, the trace-driven
// walker, and the parallel kernel runtime) publish into registries from
// this package, and the harness snapshots one registry per experiment.
//
// The design has one hard contract: **a nil registry costs nothing**.
// Every constructor and accessor is nil-safe — a nil *Registry returns
// nil metrics, and every metric method on a nil receiver is a
// predictable single-branch no-op — so instrumented code carries no
// build tags and no wrapper layers, and uninstrumented runs (the default
// for every benchmark and test) execute the same machine code as before
// the instrumentation existed, minus one well-predicted branch. Hot
// loops additionally follow the flush-at-the-end idiom: they accumulate
// into their existing plain fields and publish deltas into the registry
// at run boundaries, so even *enabled* instrumentation stays off the
// per-access path.
//
// Metric kinds:
//
//   - Counter: a monotonically increasing atomic uint64 (events, hits,
//     misses). Safe for concurrent increment from many workers.
//   - Gauge: an atomic int64 last-value-or-high-water cell (queue depth
//     HWM, configured sizes).
//   - Distribution: a fixed-size log2-bucketed sketch (count, sum,
//     min, max, 65 power-of-two buckets) recording int64 samples with
//     zero allocation; snapshots report mean and interpolated
//     P50/P90/P99.
//
// Registries are hierarchical: Child scopes nest ("figure4/des/events"),
// and Snapshot walks the tree in deterministic sorted order, so two
// identical sequential runs render byte-identical exports.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter ignores all updates, which is how
// disabled instrumentation compiles down to a branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 on a nil Counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value cell with an atomic high-water helper. A nil
// *Gauge ignores all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger (an atomic high-water
// mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil Gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// distBuckets is the bucket count of a Distribution: bucket i holds
// samples whose value needs i significant bits (bucket 0 is v <= 0,
// bucket i covers [2^(i-1), 2^i - 1]).
const distBuckets = 65

// Distribution is a log2-bucketed sketch of int64 samples: count, sum,
// min, max and a fixed histogram, all updated atomically and without
// allocation. It records latencies in nanoseconds and derived
// per-dispatch statistics such as the Team's imbalance ratio. A nil
// *Distribution ignores all updates. Construct with NewDistribution (or
// through a Registry): min/max start at their sentinels, so concurrent
// first observations race-free converge on the true extrema.
type Distribution struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until the first sample
	max     atomic.Int64 // math.MinInt64 until the first sample
	buckets [distBuckets]atomic.Uint64
}

// NewDistribution returns an empty distribution ready for concurrent
// Observe calls.
func NewDistribution() *Distribution {
	d := &Distribution{}
	d.min.Store(math.MaxInt64)
	d.max.Store(math.MinInt64)
	return d
}

// Observe records one sample.
func (d *Distribution) Observe(v int64) {
	if d == nil {
		return
	}
	d.count.Add(1)
	d.sum.Add(v)
	for {
		cur := d.min.Load()
		if v >= cur || d.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := d.max.Load()
		if v <= cur || d.max.CompareAndSwap(cur, v) {
			break
		}
	}
	d.buckets[bucketOf(v)].Add(1)
}

// bucketOf maps a sample to its histogram bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Registry is a named scope of metrics and child scopes. Metric lookup
// is create-on-first-use and guarded by a mutex — callers resolve their
// metrics once at setup and hold the returned pointers on hot paths.
// All methods are safe for concurrent use, and all methods on a nil
// *Registry return nil, so "instrumentation disabled" is spelled
// `var reg *obs.Registry` with no further conditionals at use sites.
type Registry struct {
	name string

	mu       sync.Mutex
	children map[string]*Registry
	counters map[string]*Counter
	gauges   map[string]*Gauge
	dists    map[string]*Distribution
}

// NewRegistry returns an empty root registry with the given name.
func NewRegistry(name string) *Registry {
	return &Registry{name: name}
}

// Name returns the scope's own (unqualified) name.
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Child returns the named sub-scope, creating it on first use. On a nil
// Registry it returns nil.
func (r *Registry) Child(name string) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.children[name]
	if c == nil {
		c = NewRegistry(name)
		if r.children == nil {
			r.children = make(map[string]*Registry)
		}
		r.children[name] = c
	}
	return c
}

// Counter returns the named counter in this scope, creating it on first
// use. On a nil Registry it returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// Registry it returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		r.gauges[name] = g
	}
	return g
}

// Distribution returns the named distribution, creating it on first
// use. On a nil Registry it returns nil.
func (r *Registry) Distribution(name string) *Distribution {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.dists[name]
	if d == nil {
		d = NewDistribution()
		if r.dists == nil {
			r.dists = make(map[string]*Distribution)
		}
		r.dists[name] = d
	}
	return d
}
