package engine

// This file is the sharded discrete-event driver: the same simulation,
// split over per-lane event queues (one lane per chip/socket) that a
// persistent parallel.Team executes in conservative-lookahead rounds.
//
// The contract is bit-identity with the sequential engine. It rests on
// three invariants:
//
//   - Canonical merge order. Every event carries a (time, lane,
//     sequence) key: the lane ID lives in the top bits of the lane's
//     sequence counter (laneShift), so the existing scheduled.before
//     comparison — time first, sequence second — already realizes the
//     canonical (timestamp, shard ID, sequence number) order without a
//     third field. Within one lane, sequence numbers grow in schedule
//     order exactly as in the sequential engine.
//
//   - Lane confinement. An event executes on the lane it was scheduled
//     on and touches only that lane's state. Cross-lane effects travel
//     exclusively through Send, which stamps the message with the
//     sender's clock and sequence counter. Each lane therefore performs
//     the same sequence of event executions and RNG draws no matter
//     which driver (RunMerged, RunSharded at any worker count) runs it.
//
//   - Conservative lookahead. A cross-shard message sent at time t
//     arrives no earlier than t + lookahead. A round executes only
//     events strictly below cut = minNextEventTime + lookahead, so any
//     message generated during the round is stamped at or after cut and
//     cannot land inside the window being executed. Messages exchange
//     at the barrier between rounds, always ahead of the receiver's
//     execution front.
//
// Mailboxes are single-producer single-consumer by construction: box
// [w][dst] is appended to only by worker w (the one running the sending
// lane) and drained only by the coordinator between rounds, so the hot
// path takes no locks. The Team's dispatch/wait pair provides the
// happens-before edges for the round state and the tallies.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// laneShift positions the lane ID in the top bits of a lane's sequence
// counter, realizing the canonical (time, lane, sequence) merge order
// through the existing (at, seq) heap comparison. 2^56 events per lane
// is beyond any simulated run.
const laneShift = 56

// maxLanes bounds the lane count so lane IDs fit above laneShift.
const maxLanes = 1 << (64 - laneShift)

// mail is one cross-lane message: an event stamped with the sender's
// delivery time and sequence key.
type mail struct {
	at   Time
	seq  uint64
	call Event
}

// mailbox is one SPSC lane-to-lane message buffer. The backing array is
// reused across rounds.
type mailbox []mail

// shardTally is one shard's per-round report, written by its worker
// inside the round and read by the coordinator after the barrier. The
// padding keeps neighbouring shards' tallies off one cache line.
type shardTally struct {
	events uint64
	_      [56]byte
}

// ShardedSim is a discrete-event simulation partitioned into lanes
// (one per chip/socket in the machine model). Events are scheduled on
// a lane with At, exchange between lanes with Send, and the whole
// system runs under one of two drivers:
//
//   - RunMerged: one goroutine popping the globally minimal event
//     across all lanes — the sequential reference.
//   - RunSharded: lanes grouped into contiguous shards, one worker per
//     shard, synchronized at conservative-lookahead barriers.
//
// Both drivers produce bit-identical simulations; RunSharded at any
// worker count that divides the lane count matches RunMerged exactly.
type ShardedSim struct {
	lanes    []*Sim
	minDelay Time // the conservative lookahead (cross-shard latency floor)

	// Round state: written by the coordinator between barriers, read by
	// the shard workers during a round. workerOf is nil outside
	// RunSharded, which routes every Send straight into the target lane.
	workerOf     []int
	perWorker    int
	roundCut     Time
	roundHorizon Time
	boxes        [][]mailbox // [sending worker][destination lane]
	tallies      []shardTally

	// Accumulated barrier statistics (coordinator-only writes).
	rounds         uint64
	barrierStalls  uint64
	mailboxMsgs    uint64
	criticalEvents uint64
	shardEvents    []uint64
	shardStalls    []uint64
	shardSent      []uint64
}

// NewShardedSim builds a simulation of `lanes` lanes with the given
// conservative lookahead: the guaranteed minimum delay of any
// cross-shard Send (the fabric's cheapest cross-chip hop in the machine
// model). The lookahead must be positive for RunSharded with more than
// one worker; RunMerged ignores it.
func NewShardedSim(lanes int, lookahead Time) *ShardedSim {
	if lanes <= 0 || lanes > maxLanes {
		panic(fmt.Sprintf("engine: lane count %d outside [1,%d]", lanes, maxLanes))
	}
	if lookahead < 0 {
		panic(fmt.Sprintf("engine: negative lookahead %v", lookahead))
	}
	ss := &ShardedSim{lanes: make([]*Sim, lanes), minDelay: lookahead}
	for i := range ss.lanes {
		// Seeding the lane's sequence counter with its ID in the top bits
		// makes (at, seq) the canonical (time, lane, sequence) order.
		ss.lanes[i] = &Sim{seq: uint64(i) << laneShift}
	}
	return ss
}

// At schedules ev on a lane at absolute time t (not in the lane's
// past). Use it for initial conditions; events already running on the
// lane reach their own *Sim through the callback argument.
func (ss *ShardedSim) At(lane int, t Time, ev Event) { ss.lanes[lane].At(t, ev) }

// inject pushes an already-stamped message into the lane's queue,
// bypassing the At past-check: the drivers guarantee delivery never
// precedes the receiving lane's clock (see the lookahead invariant in
// the file comment).
//
//p8:hotpath
func (s *Sim) inject(m mail) {
	s.queue.push(scheduled{at: m.at, seq: m.seq, call: m.call})
	if n := len(s.queue); n > s.maxQueue {
		s.maxQueue = n
	}
}

// Send schedules ev on lane `to`, delay nanoseconds after lane
// `from`'s clock. The message carries the sender's (time, lane,
// sequence) key, so delivery order is canonical regardless of driver.
// During a sharded run a send that crosses shards must respect the
// lookahead; a shorter delay is a model bug and panics.
//
//p8:hotpath
func (ss *ShardedSim) Send(from, to int, delay Time, ev Event) {
	if delay < 0 {
		panic("engine: negative cross-lane delay")
	}
	src := ss.lanes[from]
	src.seq++
	m := mail{at: src.now + delay, seq: src.seq, call: ev}
	if ss.workerOf == nil {
		ss.lanes[to].inject(m)
		return
	}
	sw, dw := ss.workerOf[from], ss.workerOf[to]
	if sw == dw {
		// Same worker owns both lanes: direct injection is race-free and
		// the round's rescan picks the event up if it lands in-window.
		ss.lanes[to].inject(m)
		return
	}
	if delay < ss.minDelay {
		panic("engine: cross-shard send below the lookahead bound")
	}
	ss.shardSent[sw]++
	box := &ss.boxes[sw][to]
	*box = append(*box, m)
}

// minLane returns the lane in [lo, hi) holding the globally minimal
// (time, lane, sequence) head, or -1 when all are empty. A linear scan:
// lane counts are single digits (chips per system), so scanning beats
// maintaining a second heap.
//
//p8:hotpath
func (ss *ShardedSim) minLane(lo, hi int) int {
	best := -1
	for i := lo; i < hi; i++ {
		q := ss.lanes[i].queue
		if len(q) == 0 {
			continue
		}
		if best < 0 || q[0].before(ss.lanes[best].queue[0]) {
			best = i
		}
	}
	return best
}

// RunMerged executes the whole simulation on the calling goroutine by
// repeatedly popping the canonically minimal event across all lanes —
// the sequential reference the sharded driver is bit-compared against.
// Run semantics match Sim.Run: events at exactly `horizon` execute,
// 0 means no horizon; the return value is the number of events
// executed by this call.
//
//p8:hotpath
func (ss *ShardedSim) RunMerged(horizon Time) uint64 {
	var n uint64
	for {
		best := ss.minLane(0, len(ss.lanes))
		if best < 0 {
			break
		}
		l := ss.lanes[best]
		if horizon > 0 && l.queue[0].at > horizon {
			break
		}
		next := l.queue.pop()
		l.now = next.at
		l.events++
		l.dispatch(next)
		n++
	}
	return n
}

// RunSharded executes the simulation on `workers` long-lived Team
// goroutines, each owning a contiguous group of lanes, in
// conservative-lookahead rounds:
//
//  1. The coordinator drains every mailbox into its destination lane.
//  2. The round horizon is cut = minNextEventTime + lookahead.
//  3. Each worker merge-executes its own lanes' events with time < cut
//     (and <= horizon) in canonical order.
//  4. At the barrier the coordinator tallies the round's events and
//     loops.
//
// The lane owning the minimal event always progresses, so rounds
// advance until the queues drain or pass the horizon. The worker count
// must divide the lane count; workers == 1 degenerates to a sequential
// round loop (no goroutines). The result is bit-identical to RunMerged.
func (ss *ShardedSim) RunSharded(workers int, horizon Time) uint64 {
	if workers <= 0 || len(ss.lanes)%workers != 0 {
		panic(fmt.Sprintf("engine: %d shard workers do not divide %d lanes", workers, len(ss.lanes)))
	}
	if workers > 1 && ss.minDelay <= 0 {
		panic("engine: sharded run needs a positive lookahead")
	}
	ss.perWorker = len(ss.lanes) / workers
	ss.workerOf = make([]int, len(ss.lanes))
	for i := range ss.workerOf {
		ss.workerOf[i] = i / ss.perWorker
	}
	ss.boxes = make([][]mailbox, workers)
	for w := range ss.boxes {
		ss.boxes[w] = make([]mailbox, len(ss.lanes))
	}
	ss.tallies = make([]shardTally, workers)
	ss.shardEvents = make([]uint64, workers)
	ss.shardStalls = make([]uint64, workers)
	ss.shardSent = make([]uint64, workers)
	defer func() {
		// Outside a sharded run Send routes directly again, and the
		// mailboxes can be collected.
		ss.workerOf = nil
		ss.boxes = nil
	}()

	team := parallel.NewTeam(workers)
	defer team.Close()
	body := ss.runShardBody // one method-value conversion for the whole run

	var total uint64
	for {
		ss.mailboxMsgs += ss.drainMailboxes()
		head, ok := ss.minNext()
		if !ok || (horizon > 0 && head > horizon) {
			break
		}
		ss.roundCut = head + ss.minDelay
		ss.roundHorizon = horizon
		team.StaticFor(workers, body)
		ss.rounds++
		var max uint64
		for w := range ss.tallies {
			ev := ss.tallies[w].events
			total += ev
			ss.shardEvents[w] += ev
			if ev == 0 {
				ss.barrierStalls++
				ss.shardStalls[w]++
			}
			if ev > max {
				max = ev
			}
		}
		ss.criticalEvents += max
	}
	return total
}

// minNext returns the minimal head time across all lanes; ok is false
// when every queue is empty.
func (ss *ShardedSim) minNext() (Time, bool) {
	best := ss.minLane(0, len(ss.lanes))
	if best < 0 {
		return 0, false
	}
	return ss.lanes[best].queue[0].at, true
}

// drainMailboxes moves every pending cross-shard message into its
// destination lane's queue. Coordinator-only, between rounds.
func (ss *ShardedSim) drainMailboxes() uint64 {
	var moved uint64
	for w := range ss.boxes {
		for dst, box := range ss.boxes[w] {
			if len(box) == 0 {
				continue
			}
			for i, m := range box {
				ss.lanes[dst].inject(m)
				box[i] = mail{} // release the Event closure
			}
			moved += uint64(len(box))
			ss.boxes[w][dst] = box[:0]
		}
	}
	return moved
}

// runShardBody is the Team body: with one shard per worker it runs
// exactly one shard, but the signature covers any static split.
//
//p8:hotpath
func (ss *ShardedSim) runShardBody(_, lo, hi int) {
	for shard := lo; shard < hi; shard++ {
		ss.runShard(shard)
	}
}

// runShard merge-executes one shard's lanes in canonical order up to
// the round cut.
//
//p8:hotpath
func (ss *ShardedSim) runShard(shard int) {
	lo := shard * ss.perWorker
	hi := lo + ss.perWorker
	cut, horizon := ss.roundCut, ss.roundHorizon
	var n uint64
	for {
		best := ss.minLane(lo, hi)
		if best < 0 {
			break
		}
		l := ss.lanes[best]
		at := l.queue[0].at
		// Strictly below the cut: an event at exactly cut may have to
		// merge after a message delivered at the next barrier with the
		// same timestamp but a smaller (lane, sequence) key.
		if at >= cut || (horizon > 0 && at > horizon) {
			break
		}
		next := l.queue.pop()
		l.now = next.at
		l.events++
		n++
		l.dispatch(next)
	}
	ss.tallies[shard].events = n
}

// PublishStats flushes the simulation's counters into a registry
// scope: the aggregate "events"/"scheduled"/"queue_depth_hwm" triple
// every Sim publishes, the barrier machinery's counters (rounds,
// barrier stalls, mailbox traffic, the critical path of per-round
// maxima), a lookahead-efficiency gauge (events as a permille of
// shards x critical path — 1000 means perfectly balanced rounds), and
// one child scope per shard of the last sharded run with its events,
// stalls and sent messages. A nil registry is a no-op.
func (ss *ShardedSim) PublishStats(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var events, scheduled uint64
	maxq := 0
	for i, l := range ss.lanes {
		events += l.events
		scheduled += l.seq - uint64(i)<<laneShift
		if l.maxQueue > maxq {
			maxq = l.maxQueue
		}
	}
	reg.Counter("events").Add(events)
	reg.Counter("scheduled").Add(scheduled)
	reg.Gauge("queue_depth_hwm").SetMax(int64(maxq))
	reg.Gauge("lanes").Set(int64(len(ss.lanes)))
	reg.Gauge("lookahead_ns").Set(int64(ss.minDelay))
	if ss.shardEvents == nil {
		return // merged run: no barrier machinery to report
	}
	reg.Counter("rounds").Add(ss.rounds)
	reg.Counter("barrier_stalls").Add(ss.barrierStalls)
	reg.Counter("mailbox_msgs").Add(ss.mailboxMsgs)
	reg.Counter("critical_path_events").Add(ss.criticalEvents)
	reg.Gauge("shards").Set(int64(len(ss.shardEvents)))
	if ss.criticalEvents > 0 {
		eff := events * 1000 / (ss.criticalEvents * uint64(len(ss.shardEvents)))
		reg.Gauge("lookahead_efficiency_permille").Set(int64(eff))
	}
	for w := range ss.shardEvents {
		sh := reg.Child(fmt.Sprintf("shard%d", w))
		sh.Counter("events").Add(ss.shardEvents[w])
		sh.Counter("barrier_stalls").Add(ss.shardStalls[w])
		sh.Counter("mailbox_sent").Add(ss.shardSent[w])
	}
}
