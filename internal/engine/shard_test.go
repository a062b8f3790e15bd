package engine

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// shardModel is a synthetic multi-lane workload with every ingredient
// the bit-identity contract must survive: per-lane RNG streams, per-lane
// resources (the release protocol draws sequence numbers), short local
// reschedules below the lookahead, and cross-lane messages at or above
// it. Each lane folds its RNG draws into an order-sensitive hash, so
// any reordering of a lane's event sequence changes the result.
type shardModel struct {
	ss    *ShardedSim
	rngs  []*rng.Rand
	mem   []*Resource
	hash  []uint64
	count []uint64
	limit uint64
	look  Time
	step  []Event
	cont  []Event
}

const testLookahead = Time(10)

func newShardModel(lanes int, perLane uint64) *shardModel {
	m := &shardModel{
		ss:    NewShardedSim(lanes, testLookahead),
		rngs:  make([]*rng.Rand, lanes),
		mem:   make([]*Resource, lanes),
		hash:  make([]uint64, lanes),
		count: make([]uint64, lanes),
		limit: perLane,
		look:  testLookahead,
		step:  make([]Event, lanes),
		cont:  make([]Event, lanes),
	}
	for l := 0; l < lanes; l++ {
		l := l
		m.rngs[l] = rng.New(uint64(1000 + l))
		m.mem[l] = NewResource("bank", 1)
		m.step[l] = func(s *Sim) {
			if m.count[l] >= m.limit {
				return
			}
			m.count[l]++
			r := m.rngs[l].Uint64()
			m.hash[l] = m.hash[l]*1099511628211 + r
			m.mem[l].Acquire(s, Time(r%50), m.cont[l])
		}
		m.cont[l] = func(s *Sim) {
			r := m.rngs[l].Uint64()
			m.hash[l] = m.hash[l]*1099511628211 + r
			target := int(r % uint64(lanes))
			if target != l && r%4 == 0 {
				m.ss.Send(l, target, m.look+Time(r%20), m.step[target])
				return
			}
			s.After(Time(r%8), m.step[l])
		}
	}
	for l := 0; l < lanes; l++ {
		m.ss.At(l, Time(l), m.step[l])
	}
	return m
}

// signature captures everything the identity tests compare.
type shardSignature struct {
	hash, count, events []uint64
	now                 []Time
	total               uint64
}

func (m *shardModel) signature(total uint64) shardSignature {
	sig := shardSignature{total: total}
	for l := 0; l < m.ss.Lanes(); l++ {
		sig.hash = append(sig.hash, m.hash[l])
		sig.count = append(sig.count, m.count[l])
		sig.events = append(sig.events, m.ss.LaneEvents(l))
		sig.now = append(sig.now, m.ss.LaneNow(l))
	}
	return sig
}

func sameSignature(a, b shardSignature) bool {
	if a.total != b.total {
		return false
	}
	for i := range a.hash {
		if a.hash[i] != b.hash[i] || a.count[i] != b.count[i] ||
			a.events[i] != b.events[i] || a.now[i] != b.now[i] {
			return false
		}
	}
	return true
}

func TestShardedMatchesMergedBitForBit(t *testing.T) {
	for _, horizon := range []Time{0, 5000} {
		ref := newShardModel(4, 2000)
		want := ref.signature(ref.ss.RunMerged(horizon))
		if want.total == 0 {
			t.Fatalf("horizon %v: reference run executed no events", horizon)
		}
		for _, workers := range []int{1, 2, 4} {
			m := newShardModel(4, 2000)
			got := m.signature(m.ss.RunSharded(workers, horizon))
			if !sameSignature(got, want) {
				t.Errorf("horizon %v, %d workers: sharded run diverged from merged: got %+v want %+v",
					horizon, workers, got, want)
			}
		}
	}
}

func TestSendBelowLookaheadPanics(t *testing.T) {
	ss := NewShardedSim(2, testLookahead)
	// White-box: pretend a 2-worker round is in flight so lane 0 -> 1
	// crosses shards.
	ss.workerOf = []int{0, 1}
	ss.perWorker = 1
	ss.boxes = [][]mailbox{make([]mailbox, 2), make([]mailbox, 2)}
	ss.shardSent = make([]uint64, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard send below the lookahead did not panic")
		}
	}()
	ss.Send(0, 1, testLookahead/2, func(*Sim) {})
}

func TestRunShardedValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("workers do not divide lanes", func() { NewShardedSim(4, 1).RunSharded(3, 0) })
	mustPanic("zero workers", func() { NewShardedSim(4, 1).RunSharded(0, 0) })
	mustPanic("zero lookahead with parallel workers", func() { NewShardedSim(4, 0).RunSharded(2, 0) })
	mustPanic("zero lanes", func() { NewShardedSim(0, 1) })
	mustPanic("negative lookahead", func() { NewShardedSim(2, -1) })
	mustPanic("negative send delay", func() {
		NewShardedSim(2, 1).Send(0, 1, -1, func(*Sim) {})
	})
}

func TestShardedPublishStats(t *testing.T) {
	m := newShardModel(4, 500)
	total := m.ss.RunSharded(2, 0)
	reg := obs.NewRegistry("test")
	m.ss.PublishStats(reg)
	snap := reg.Snapshot()
	get := func(name string) uint64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %q missing from %+v", name, snap.Counters)
		return 0
	}
	if got := get("events"); got != total {
		t.Errorf("events counter %d, want %d", got, total)
	}
	if get("rounds") == 0 {
		t.Error("no rounds recorded for a sharded run")
	}
	if get("mailbox_msgs") == 0 {
		t.Error("no mailbox traffic recorded; the model does send cross-shard")
	}
	if get("critical_path_events") == 0 || get("critical_path_events") > total {
		t.Errorf("critical path %d outside (0, %d]", get("critical_path_events"), total)
	}
	perShard := uint64(0)
	for _, child := range snap.Children {
		for _, c := range child.Counters {
			if c.Name == "events" {
				perShard += c.Value
			}
		}
	}
	if perShard != total {
		t.Errorf("per-shard events sum to %d, want %d", perShard, total)
	}
}

// TestMergedScheduledCountsExcludeLaneBase guards the seq encoding: the
// published "scheduled" counter must count events, not carry the
// lane-ID bits.
func TestMergedScheduledCountsExcludeLaneBase(t *testing.T) {
	m := newShardModel(4, 100)
	m.ss.RunMerged(0)
	reg := obs.NewRegistry("test")
	m.ss.PublishStats(reg)
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		if c.Name == "scheduled" && c.Value >= 1<<laneShift {
			t.Fatalf("scheduled counter %d leaks the lane base", c.Value)
		}
	}
}

// Lanes returns the lane count.
func (ss *ShardedSim) Lanes() int { return len(ss.lanes) }

// LaneEvents returns one lane's executed-event count.
func (ss *ShardedSim) LaneEvents(lane int) uint64 { return ss.lanes[lane].events }

// LaneNow returns one lane's clock.
func (ss *ShardedSim) LaneNow(lane int) Time { return ss.lanes[lane].now }
