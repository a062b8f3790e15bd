package engine

import (
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(30, func(*Sim) { order = append(order, 3) })
	s.At(10, func(*Sim) { order = append(order, 1) })
	s.At(20, func(*Sim) { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("final time = %v, want 30", s.Now())
	}
	if s.Events() != 3 {
		t.Errorf("events = %d", s.Events())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func(*Sim) { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", order)
		}
	}
}

func TestAfterChains(t *testing.T) {
	var s Sim
	var times []Time
	var step func(*Sim)
	n := 0
	step = func(sim *Sim) {
		times = append(times, sim.Now())
		n++
		if n < 3 {
			sim.After(7, step)
		}
	}
	s.After(7, step)
	s.Run(0)
	want := []Time{7, 14, 21}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times = %v, want %v", times, want)
			break
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var s Sim
	s.At(10, func(sim *Sim) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sim.At(5, func(*Sim) {})
	})
	s.Run(0)
}

func TestRunHorizon(t *testing.T) {
	var s Sim
	ran := 0
	s.At(10, func(*Sim) { ran++ })
	s.At(100, func(*Sim) { ran++ })
	n := s.Run(50)
	if n != 1 || ran != 1 {
		t.Errorf("horizon run executed %d events", ran)
	}
	if s.Now() != 10 {
		t.Errorf("now = %v", s.Now())
	}
	s.Run(0)
	if ran != 2 {
		t.Errorf("remaining event did not run")
	}
}

func TestResourceSerializes(t *testing.T) {
	var s Sim
	r := NewResource("chan", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Acquire(&s, 10, func(sim *Sim) { done = append(done, sim.Now()) })
	}
	if r.Busy() != 1 || r.QueueLen() != 2 {
		t.Fatalf("busy=%d queue=%d", r.Busy(), r.QueueLen())
	}
	s.Run(0)
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("completions = %v, want %v", done, want)
			break
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	var s Sim
	r := NewResource("link", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Acquire(&s, 10, func(sim *Sim) { done = append(done, sim.Now()) })
	}
	s.Run(0)
	// Two at a time: completions at 10,10,20,20.
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("completions = %v, want %v", done, want)
			break
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	var s Sim
	r := NewResource("mem", 1)
	r.Acquire(&s, 10, nil)
	s.Run(0)
	// One server busy 10ns over 10ns of simulated time.
	if u := r.Utilization(&s); math.Abs(u-1.0) > 1e-12 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestResourceUtilizationAtTimeZero(t *testing.T) {
	var s Sim
	r := NewResource("m", 1)
	if r.Utilization(&s) != 0 {
		t.Error("utilization at t=0 should be 0")
	}
}

func TestResourcePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-server resource did not panic")
			}
		}()
		NewResource("x", 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative hold did not panic")
			}
		}()
		var s Sim
		NewResource("x", 1).Acquire(&s, -1, nil)
	}()
}

func TestStepEmptyQueue(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Sim) Events() uint64 { return s.events }

// Step executes the next event. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	next := s.queue.pop()
	s.now = next.at
	s.events++
	s.dispatch(next)
	return true
}

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.waiting) - r.head }

// Busy returns the number of occupied servers.
func (r *Resource) Busy() int { return r.busy }

// Utilization returns the mean server occupancy over [0, now] as a
// fraction of capacity; it returns 0 at time zero.
func (r *Resource) Utilization(s *Sim) float64 {
	if s.now == 0 {
		return 0
	}
	return r.BusyTime / (float64(s.now) * float64(r.servers))
}
