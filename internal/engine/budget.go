package engine

import "fmt"

// Budget is the cooperative watchdog attached to one experiment's
// simulations. Every DES event and every walker access charges one
// unit; when the configured limit is exhausted the charging simulation
// panics with a Trip, which the harness's isolation wrapper converts
// into a failed report. This is how a runaway simulation (an event
// loop that never drains, a trace that never ends) fails cleanly
// instead of hanging an entire sweep.
//
// A nil *Budget is unlimited and never trips: simulations constructed
// outside the harness (benchmarks, unit tests, library use) pay only a
// nil check. A Budget belongs to a single experiment and is not safe
// for concurrent use. A sharded simulation therefore never charges from
// its worker goroutines: each shard loop counts events in a plain
// local, bounded by RoundCap, and the coordinator books the round's sum
// with Charge at the barrier — the single trip point, on the one
// goroutine whose panics the harness's isolation wrapper catches.
type Budget struct {
	// spent and limit are plain fields: charges come from the one
	// goroutine running the experiment's simulations.
	spent uint64
	limit uint64
}

// NewBudget returns a budget allowing `events` charges; 0 means no
// event limit (the budget then never trips).
func NewBudget(events uint64) *Budget {
	return &Budget{limit: events}
}

// Trip is the panic value raised when a Budget is exhausted. The
// harness recovers it and renders a watchdog failure; everything else
// treats it as any other panic.
type Trip struct {
	// Events is how many charges had been spent when the trip fired.
	Events uint64
	// Limit is the configured event limit.
	Limit uint64
}

// Error renders the trip; Trip implements error so recovered values
// print cleanly.
func (t Trip) Error() string {
	return fmt.Sprintf("engine: event budget exhausted (%d of %d events)", t.Events, t.Limit)
}

// Charge books n events against the budget and panics with a Trip when
// the limit is exhausted. A nil receiver is unlimited. The sequential
// engine and the walker charge per event; a sharded run charges one
// barrier round's sum, and the trip arithmetic is the same, so it
// renders the exact same Trip as the sequential engine.
func (b *Budget) Charge(n uint64) {
	if b == nil {
		return
	}
	b.spent += n
	if b.limit > 0 && b.spent > b.limit {
		// The overflowing charge was refused, not executed: clamp so the
		// diagnostic reads "limit of limit events".
		b.spent = b.limit
		panic(Trip{Events: b.spent, Limit: b.limit})
	}
}

// RoundCap returns how many events one shard loop may execute between
// barriers before it must stop and let the coordinator's Charge trip:
// the remaining allowance plus the one overflowing event (so the
// barrier charge exceeds the limit exactly as a sequential overrun
// would). 0 means unlimited (nil or no event limit).
func (b *Budget) RoundCap() uint64 {
	if b == nil || b.limit == 0 {
		return 0
	}
	// spent never exceeds limit (Charge clamps on trip).
	return b.limit - b.spent + 1
}
