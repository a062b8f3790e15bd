package machine

import (
	"fmt"
	"runtime"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/units"
)

// ShardCountValid reports whether a shard count divides the machine's
// socket topology. The sharded DES partitions by socket, so the only
// legal shard counts are divisors of the chip count (1..chips).
func ShardCountValid(spec *arch.SystemSpec, shards int) bool {
	return shards > 0 && shards <= spec.Topology.Chips && spec.Topology.Chips%shards == 0
}

// AutoShards picks the default shard count: the largest divisor of the
// socket count not exceeding maxWorkers (GOMAXPROCS when maxWorkers
// <= 0). More shards than schedulable CPUs would only add barrier
// handoffs without parallel progress.
func AutoShards(spec *arch.SystemSpec, maxWorkers int) int {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	best := 1
	for d := 2; d <= spec.Topology.Chips && d <= maxWorkers; d++ {
		if spec.Topology.Chips%d == 0 {
			best = d
		}
	}
	return best
}

// SimulateRandomAccessSharded runs the Figure 4 random-access DES on
// the sharded engine: one event lane per socket, grouped into `shards`
// contiguous shards (<= 0 selects AutoShards) that parallel Team
// workers execute in conservative-lookahead rounds. The lookahead is
// the fabric's cheapest hop crossing a shard boundary
// (fabric.MinCrossLatencyNs), so it widens automatically when fewer,
// larger shards leave only expensive A-bus pairs on the boundary.
//
// The model is socket-resolved where SimulateRandomAccess pools the
// whole machine: each socket owns its share of the calibrated bank
// pool, its chasers target a uniformly random socket per access, and
// remote accesses pay the fabric's hop latency each way on top of the
// calibrated local transit. The structure — bank homes, RNG streams,
// hop latencies — depends only on the machine, never on the shard
// count, and every cross-socket interaction travels as a timestamped
// message, so any shard count produces bit-identical bandwidth,
// completions and event counts (enforced by TestShardedDESBitIdentity).
//
// A nil registry runs unobserved. Like the pooled variant, invalid
// parameters panic — CLI front-ends pre-validate -shards against the
// topology.
//
// The trailing parameter is ignored; every caller passes nil. It keeps
// the call in cmd/p8bench's machine.des probe, which is the fixed
// benchmark and passes nil there, compiling. The next change that edits
// cmd/p8bench drops the argument there and removes the parameter.
func (m *Machine) SimulateRandomAccessSharded(threads, streams int, horizonNs float64, shards int, reg *obs.Registry, _ any) units.Bandwidth {
	if threads <= 0 || streams <= 0 || horizonNs <= 0 {
		panic(fmt.Sprintf("machine: invalid DES parameters %d/%d/%g", threads, streams, horizonNs))
	}
	chips := m.Spec.Topology.Chips
	if shards <= 0 {
		shards = AutoShards(m.Spec, 0)
	}
	if !ShardCountValid(m.Spec, shards) {
		panic(fmt.Sprintf("machine: %d shards do not divide the %d-socket topology", shards, chips))
	}

	calib := m.Mem.Calibration()
	const serviceNs = 50.0
	// Same transit derivation as the pooled model: the replay adder of a
	// degraded subsystem rides the transit leg, not the bank occupancy.
	transitNs := calib.RandomBaseLatencyNs + m.Mem.Degradation().ReplayNs() - serviceNs
	if transitNs < 0 {
		transitNs = 0
	}
	peakLinesPerNs := float64(m.Mem.RandomPeakBandwidth()) / float64(trace.LineSize) * 1e-9
	banksTotal := int(peakLinesPerNs*serviceNs + 0.5)
	if banksTotal < 1 {
		banksTotal = 1
	}

	perCore := threads * streams
	if perCore > m.Spec.Chip.LoadMissQueue {
		perCore = m.Spec.Chip.LoadMissQueue
	}

	lanesPerShard := chips / shards
	shardOf := make([]int, chips)
	for c := range shardOf {
		shardOf[c] = c / lanesPerShard
	}
	lookahead := engine.Time(m.Net.MinCrossLatencyNs(shardOf))

	ss := engine.NewShardedSim(chips, lookahead)

	// Precompute hop latencies: the issue path must not call into the
	// fabric model per access.
	hop := make([][]engine.Time, chips)
	for c := range hop {
		hop[c] = make([]engine.Time, chips)
		for d := range hop[c] {
			hop[c][d] = engine.Time(m.Net.HopLatencyNs(arch.ChipID(c), arch.ChipID(d)))
		}
	}

	// Per-socket lane state. Each struct is separately allocated and
	// only ever touched by events running on its own lane, so shard
	// workers never share a cache line, let alone a word.
	type socket struct {
		rng         *rng.Rand
		mem         []*engine.Resource
		completions uint64
	}
	socks := make([]*socket, chips)
	banksSum, chasersSum := 0, 0
	for c := 0; c < chips; c++ {
		banks := banksTotal / chips
		if c < banksTotal%chips {
			banks++
		}
		if banks < 1 {
			// Tiny configurations round a socket down to zero banks; every
			// socket keeps at least one so remote accesses always have a
			// home (the ceiling error is negligible at calibrated scales).
			banks = 1
		}
		banksSum += banks
		sk := &socket{
			// One decorrelated stream per socket (rng.New splitmixes the
			// seed); the pooled model's single stream would be shared
			// mutable state across lanes.
			rng: rng.New(20160523 + uint64(c)),
			mem: make([]*engine.Resource, banks),
		}
		for b := range sk.mem {
			sk.mem[b] = engine.NewResource("bank", 1)
		}
		socks[c] = sk
	}

	// The event graph, closures prebuilt per socket (and per socket
	// pair for the cross-socket legs) so a chaser's whole cycle
	// allocates nothing:
	//
	//   issue[c]      pick a target socket on c's RNG; local accesses
	//                 queue on a local bank, remote ones travel hop(c,t)
	//   arrive[t][c]  the request lands on t: pick a bank on t's RNG
	//   respond[t][c] bank service done: data travels hop(t,c) back
	//   retn[c]       the load completed at its requester: count it and
	//                 reissue after the calibrated local transit
	issue := make([]engine.Event, chips)
	retn := make([]engine.Event, chips)
	arrive := make([][]engine.Event, chips)
	respond := make([][]engine.Event, chips)
	for t := 0; t < chips; t++ {
		arrive[t] = make([]engine.Event, chips)
		respond[t] = make([]engine.Event, chips)
	}
	for c := 0; c < chips; c++ {
		c := c
		sk := socks[c]
		issue[c] = func(s *engine.Sim) {
			t := sk.rng.Intn(chips)
			if t == c {
				sk.mem[sk.rng.Intn(len(sk.mem))].Acquire(s, serviceNs, retn[c])
				return
			}
			ss.Send(c, t, hop[c][t], arrive[t][c])
		}
		retn[c] = func(s *engine.Sim) {
			sk.completions++
			s.After(engine.Time(transitNs), issue[c])
		}
	}
	for t := 0; t < chips; t++ {
		t := t
		sk := socks[t]
		for c := 0; c < chips; c++ {
			c := c
			arrive[t][c] = func(s *engine.Sim) {
				// The bank draw happens on the destination lane's RNG at
				// arrival time: lane-confined, so delivery order (which is
				// canonical) fully determines it.
				sk.mem[sk.rng.Intn(len(sk.mem))].Acquire(s, serviceNs, respond[t][c])
			}
			respond[t][c] = func(s *engine.Sim) {
				ss.Send(t, c, hop[t][c], retn[c])
			}
		}
	}

	// Stagger each socket's chasers across one transit time, as the
	// pooled model does globally.
	for c := 0; c < chips; c++ {
		chasers := perCore * m.Spec.ActiveCores(arch.ChipID(c))
		chasersSum += chasers
		for i := 0; i < chasers; i++ {
			offset := transitNs * float64(i) / float64(chasers)
			ss.At(c, engine.Time(offset), issue[c])
		}
	}

	if shards == 1 {
		ss.RunMerged(engine.Time(horizonNs))
	} else {
		ss.RunSharded(shards, engine.Time(horizonNs))
	}

	var completions uint64
	for _, sk := range socks {
		completions += sk.completions
	}
	if reg != nil {
		des := reg.Child("des")
		ss.PublishStats(des)
		des.Counter("completions").Add(completions)
		des.Gauge("banks").Set(int64(banksSum))
		des.Gauge("chasers").Set(int64(chasersSum))
		var busy float64
		for _, sk := range socks {
			for _, b := range sk.mem {
				busy += b.BusyTime / horizonNs
			}
		}
		des.Gauge("bank_utilization_permille").Set(int64(1000 * busy / float64(banksSum)))
	}
	return units.Bandwidth(float64(completions) * trace.LineSize / (horizonNs * 1e-9))
}
