// Package engine is a small discrete-event simulation kernel: a simulated
// clock, a time-ordered event queue, and FIFO-queued resources with finite
// service capacity. The machine model uses it for experiments where
// concurrency and queueing matter — random-access bandwidth with limited
// load-miss queues (Figure 4) and link contention — while pure dependent-
// load latency walks (Figure 2) do not need it.
//
// The event queue is a typed 4-ary min-heap rather than container/heap:
// events are stored unboxed in one contiguous slice (no interface{}
// conversion, no allocation per push beyond amortized slice growth), and
// the wider fan-out halves the tree depth, which matters because the
// sift-down path dominates a DES pop-heavy workload.
package engine

import "fmt"

// Time is simulated time in nanoseconds.
type Time float64

// Event is a callback scheduled at a point in simulated time.
type Event func(s *Sim)

type scheduled struct {
	at   Time
	seq  uint64 // tie-break so same-time events run in schedule order
	call Event
	// release, when non-nil, is a resource whose server this event frees
	// before call runs. Keeping it a typed field instead of wrapping the
	// release in a closure saves one heap allocation per service — the
	// dominant allocation of a queueing-heavy simulation.
	release *Resource
}

// before orders the heap: earliest time first, schedule order on ties.
func (a scheduled) before(b scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of scheduled events in a flat slice:
// the children of node i are nodes 4i+1 .. 4i+4.
type eventQueue []scheduled

// push inserts one event, sifting it up to heap position.
//
//p8:hotpath
func (q *eventQueue) push(ev scheduled) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the minimum. The queue must be non-empty.
//
//p8:hotpath
func (q *eventQueue) pop() scheduled {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = scheduled{} // release the Event closure for GC
	h = h[:last]
	*q = h

	// Sift the displaced tail element down to its place.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Sim is a discrete-event simulation instance. The zero value is ready to
// use.
//
// The simulator keeps its own observability counters as plain fields —
// it is single-goroutine by construction, so they cost one ALU op each —
// and ShardedSim.PublishStats flushes its lanes' counters into an obs
// registry at run boundaries.
// This is the flush-at-the-end idiom documented in internal/obs: the
// event dispatch loop itself carries no instrumentation overhead.
type Sim struct {
	now      Time
	seq      uint64
	queue    eventQueue
	events   uint64
	maxQueue int
}

// At schedules ev at absolute time t, which must not be in the past.
func (s *Sim) At(t Time, ev Event) {
	if t < s.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.queue.push(scheduled{at: t, seq: s.seq, call: ev})
	if n := len(s.queue); n > s.maxQueue {
		s.maxQueue = n
	}
}

// After schedules ev delay nanoseconds from now; negative delays panic.
func (s *Sim) After(delay Time, ev Event) { s.At(s.now+delay, ev) }

// dispatch runs one popped event: the resource release protocol first,
// then the scheduled callback.
//
//p8:hotpath
func (s *Sim) dispatch(ev scheduled) {
	if ev.release != nil {
		ev.release.release(s)
	}
	if ev.call != nil {
		ev.call(s) //p8:allow hotpath: the scheduled callback is the DES's payload — event dispatch is necessarily indirect; hot callbacks carry their own annotations
	}
}

// Run executes events until the queue drains or until simulated time
// exceeds horizon (0 means no horizon). It returns the number of events
// executed by this call. The pop is inlined here rather than routed
// through Step so the head of the queue is examined once per event, not
// twice. Event-loop throughput and its allocation budget are pinned by
// BenchmarkSchedule and BenchmarkSimPointerChase in
// engine_bench_test.go.
//
//p8:hotpath
func (s *Sim) Run(horizon Time) uint64 {
	start := s.events
	for len(s.queue) > 0 {
		if horizon > 0 && s.queue[0].at > horizon {
			break
		}
		next := s.queue.pop()
		s.now = next.at
		s.events++
		s.dispatch(next)
	}
	return s.events - start
}

// Resource is a service station with a fixed number of servers and an
// unbounded FIFO queue, e.g. a memory channel or an SMP link direction.
// Acquire requests service for a given holding time; done runs when the
// service completes.
type Resource struct {
	Name    string
	servers int
	busy    int
	// waiting[head:] are the queued requests. Dequeuing advances head
	// instead of reslicing so the backing array is reused across the
	// whole simulation; the slice rewinds to its start whenever the
	// queue drains.
	waiting []pending
	head    int
	// BusyTime accumulates server-occupancy (ns x servers) for utilization
	// accounting.
	BusyTime float64
}

type pending struct {
	hold Time
	done Event
}

// NewResource returns a resource with the given number of servers (> 0).
func NewResource(name string, servers int) *Resource {
	if servers <= 0 {
		panic("engine: resource needs at least one server")
	}
	return &Resource{Name: name, servers: servers}
}

// Acquire requests one server for hold nanoseconds; when service finishes,
// done is scheduled (it may be nil). Requests queue FIFO when all servers
// are busy.
//
//p8:hotpath
func (r *Resource) Acquire(s *Sim, hold Time, done Event) {
	if hold < 0 {
		panic("engine: negative hold time")
	}
	if r.busy < r.servers {
		r.start(s, hold, done)
		return
	}
	r.waiting = append(r.waiting, pending{hold: hold, done: done})
}

// dequeue removes and returns the oldest waiting request; ok is false
// when the queue is empty.
//
//p8:hotpath
func (r *Resource) dequeue() (pending, bool) {
	if r.head == len(r.waiting) {
		return pending{}, false
	}
	next := r.waiting[r.head]
	r.waiting[r.head] = pending{} // release the done closure
	r.head++
	if r.head == len(r.waiting) {
		r.waiting = r.waiting[:0]
		r.head = 0
	}
	return next, true
}

// start occupies one server and books its completion event.
//
//p8:hotpath
func (r *Resource) start(s *Sim, hold Time, done Event) {
	r.busy++
	r.BusyTime += float64(hold)
	s.seq++
	s.queue.push(scheduled{at: s.now + hold, seq: s.seq, call: done, release: r})
	if n := len(s.queue); n > s.maxQueue {
		s.maxQueue = n
	}
}

// release frees one server and starts the oldest waiting request, if any.
// It runs from the event dispatch loop when a service completes.
//
//p8:hotpath
func (r *Resource) release(s *Sim) {
	r.busy--
	if next, ok := r.dequeue(); ok {
		r.start(s, next.hold, next.done)
	}
}
