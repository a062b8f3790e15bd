package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans of one unit of work share a trace id; Parent is 0 at the root.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	TraceID int    `json:"trace_id"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. Traced runs are
// sequential, so it is used from one goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(name string, parent, traceID int) int {
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, TraceID: traceID,
		StartNs: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.origin))
	return s.dur()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent, traceID int, fn func()) time.Duration {
	id := t.start(name, parent, traceID)
	fn()
	return t.end(id)
}

func (t *tracer) span(id int) span { return t.spans[id-1] }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span id - 1.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].StartNs < ch[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// selfByName sums self time per span name over the spans that satisfy keep.
func (t *tracer) selfByName(keep func(span) bool) map[string]time.Duration {
	self := t.selfTimes()
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if keep(s) {
			out[s.Name] += self[i]
		}
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// unitSpan names the root span of one traced unit of work; probeSpan
// prefixes the spans around the layer probes.
const (
	unitSpan  = "unit"
	probeSpan = "probe."
)

// printAttribution prints where a traced unit's time went: every span
// name by mean self time per unit, as a share of the untraced reference
// unit, then the probes, then layer estimates from counts times probe
// costs. differences names how the traced units differ from the
// untraced ones.
func printAttribution(w io.Writer, workload, differences string, t *tracer, units int, refMs float64, layer map[string]float64) {
	fmt.Fprintf(w, "\nattribution: %s, %d traced unit(s), untraced reference unit %.3f ms\n", workload, units, refMs)
	fmt.Fprintf(w, "  known differences from the untraced run: %s\n", differences)
	inUnits := t.selfByName(func(s span) bool { return !strings.HasPrefix(s.Name, probeSpan) })
	probes := t.selfByName(func(s span) bool { return strings.HasPrefix(s.Name, probeSpan) })
	row := func(name string, perUnit float64) {
		fmt.Fprintf(w, "  %-34s %12.3f ms %7.2f%% of the pass\n", name, perUnit, 100*perUnit/refMs)
	}
	for _, name := range byValue(inUnits) {
		row(name, ms(inUnits[name])/float64(max(units, 1)))
	}
	fmt.Fprintln(w, "  layer probes (fixed inputs, outside the pass):")
	for _, name := range byValue(probes) {
		row(name, ms(probes[name]))
	}
	fmt.Fprintln(w, "  layer estimates (count in the traced units x probe cost per operation):")
	for _, e := range []struct {
		name, count, cost string
		msPerCost         float64 // milliseconds in one unit of the cost metric
	}{
		{"walker", "machine.walker.accesses", "machine.walker.ns_per_access", 1e-6},
		{"des", "engine.events", "machine.des.ns_per_event", 1e-6},
		{"canon", "memo.lookups", "canon.machine_fp_us", 1e-3},
		{"journal", "journal.appends", "journal.append_sync_us_p50", 1e-3},
	} {
		est := layer[e.count] * layer[e.cost] * e.msPerCost / float64(max(units, 1))
		fmt.Fprintf(w, "  %-34s %12.3f ms %7.2f%% of the pass  (%s x %s)\n", e.name, est, 100*est/refMs, e.count, e.cost)
	}
}

// byValue returns the keys of m, largest value first.
func byValue(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if m[keys[a]] != m[keys[b]] {
			return m[keys[a]] > m[keys[b]]
		}
		return keys[a] < keys[b]
	})
	return keys
}
