package obs

import (
	"fmt"
	"math"
	"sort"
)

// Snapshot is a point-in-time copy of one registry scope and its
// children. Metric slices and the child list are sorted by name, so a
// snapshot of a deterministic run renders byte-identically run to run —
// the property the harness's snapshot-determinism test pins down.
type Snapshot struct {
	Name          string         `json:"name"`
	Counters      []CounterValue `json:"counters,omitempty"`
	Gauges        []GaugeValue   `json:"gauges,omitempty"`
	Distributions []DistSummary  `json:"distributions,omitempty"`
	Children      []Snapshot     `json:"children,omitempty"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// DistSummary is one distribution's snapshot: exact count/sum/min/max
// plus quantiles interpolated from the log2 buckets (accurate to the
// bucket's power-of-two width).
type DistSummary struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot copies the scope's current metric values. It is safe to call
// concurrently with metric updates (values are read atomically; the
// snapshot is a consistent-enough view for reporting, not a global
// barrier). A nil Registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	s := Snapshot{Name: r.name}
	counterNames := sortedKeys(r.counters)
	gaugeNames := sortedKeys(r.gauges)
	distNames := sortedKeys(r.dists)
	childNames := sortedKeys(r.children)
	counters := make([]*Counter, len(counterNames))
	for i, n := range counterNames {
		counters[i] = r.counters[n]
	}
	gauges := make([]*Gauge, len(gaugeNames))
	for i, n := range gaugeNames {
		gauges[i] = r.gauges[n]
	}
	dists := make([]*Distribution, len(distNames))
	for i, n := range distNames {
		dists[i] = r.dists[n]
	}
	children := make([]*Registry, len(childNames))
	for i, n := range childNames {
		children[i] = r.children[n]
	}
	r.mu.Unlock()

	// Read the metric values outside the lock: the pointers are stable
	// and the loads atomic, and children take their own locks.
	for i, n := range counterNames {
		s.Counters = append(s.Counters, CounterValue{Name: n, Value: counters[i].Load()})
	}
	for i, n := range gaugeNames {
		s.Gauges = append(s.Gauges, GaugeValue{Name: n, Value: gauges[i].Load()})
	}
	for i, n := range distNames {
		s.Distributions = append(s.Distributions, dists[i].summarize(n))
	}
	for _, c := range children {
		s.Children = append(s.Children, c.Snapshot())
	}
	return s
}

// sortedKeys returns the sorted key set of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summarize renders the distribution's current state.
func (d *Distribution) summarize(name string) DistSummary {
	s := DistSummary{Name: name, Count: d.count.Load()}
	if s.Count == 0 {
		return s
	}
	s.Sum = d.sum.Load()
	s.Min = d.min.Load()
	s.Max = d.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	var buckets [distBuckets]uint64
	var total uint64
	for i := range d.buckets {
		buckets[i] = d.buckets[i].Load()
		total += buckets[i]
	}
	s.P50 = d.quantile(&buckets, total, 0.50, s.Min, s.Max)
	s.P90 = d.quantile(&buckets, total, 0.90, s.Min, s.Max)
	s.P99 = d.quantile(&buckets, total, 0.99, s.Min, s.Max)
	return s
}

// quantile estimates the q-quantile from the log2 histogram by linear
// interpolation inside the containing bucket, clamped to the exact
// observed [min, max].
func (d *Distribution) quantile(buckets *[distBuckets]uint64, total uint64, q float64, min, max int64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if rank < seen+n {
			lo, hi := bucketBounds(i)
			frac := float64(rank-seen) / float64(n)
			v := lo + int64(frac*float64(hi-lo))
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		seen += n
	}
	return max
}

// bucketBounds returns the value range [lo, hi] bucket i covers.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	if i >= 63 {
		// The top buckets would overflow int64 shifts; clamp.
		return int64(1) << 62, math.MaxInt64
	}
	return int64(1) << (i - 1), int64(1)<<i - 1
}

// Empty reports whether the snapshot contains no metrics anywhere.
func (s Snapshot) Empty() bool {
	if len(s.Counters) > 0 || len(s.Gauges) > 0 || len(s.Distributions) > 0 {
		return false
	}
	for _, c := range s.Children {
		if !c.Empty() {
			return false
		}
	}
	return true
}

// CounterMap flattens every counter in the snapshot tree into a
// path->value map, with scope names joined by "/". Counters are the
// deterministic subset of a snapshot (gauges and distributions may carry
// wall time and allocation figures), so identity tests compare this map.
func (s Snapshot) CounterMap() map[string]uint64 {
	out := make(map[string]uint64)
	s.counterInto("", out)
	return out
}

func (s Snapshot) counterInto(prefix string, out map[string]uint64) {
	p := s.Name
	if prefix != "" {
		p = prefix + "/" + s.Name
	}
	for _, c := range s.Counters {
		out[p+"/"+c.Name] = c.Value
	}
	for _, child := range s.Children {
		child.counterInto(p, out)
	}
}

// String renders the snapshot compactly for debugging.
func (s Snapshot) String() string {
	return fmt.Sprintf("obs.Snapshot(%s: %d counters, %d gauges, %d dists, %d children)",
		s.Name, len(s.Counters), len(s.Gauges), len(s.Distributions), len(s.Children))
}
