package engine

import (
	"fmt"
	"sync/atomic"
)

// cancelCheckMask sets how often a Budget consults its cross-goroutine
// cancellation flag: every (mask+1) charged events. The flag is an
// atomic and the charge path is reached from //p8:hotpath code, so the
// load is amortized instead of paid per event.
const cancelCheckMask = 1023

// Budget is the cooperative watchdog attached to one experiment's
// simulations. Every DES event and every walker access charges one
// unit; when a configured limit is exhausted — or the budget is
// cancelled from another goroutine — the charging simulation panics
// with a Trip, which the harness's isolation wrapper converts into a
// failed report. This is how a runaway simulation (an event loop that
// never drains, a trace that never ends) fails cleanly instead of
// hanging an entire sweep.
//
// A nil *Budget is unlimited and never trips: simulations constructed
// outside the harness (benchmarks, unit tests, library use) pay only a
// nil check. A Budget belongs to a single experiment; the charge path
// is not safe for concurrent use, but Cancel may be called from any
// goroutine. A sharded simulation therefore never charges from its
// worker goroutines: each shard loop counts events in a plain local,
// bounded by RoundCap, and the coordinator books the round's sum with
// ChargeBatch at the barrier — the single trip point, on the one
// goroutine whose panics the harness's isolation wrapper catches.
type Budget struct {
	// spent and limit are plain fields: charges come from the one
	// goroutine running the experiment's simulations.
	spent uint64
	limit uint64
	// cancelled is the only cross-goroutine field; Cancel sets it and
	// the charge path polls it every cancelCheckMask+1 events.
	cancelled atomic.Bool
}

// NewBudget returns a budget allowing `events` charges; 0 means no
// event limit (the budget then only trips on Cancel).
func NewBudget(events uint64) *Budget {
	return &Budget{limit: events}
}

// Trip is the panic value raised when a Budget is exhausted or
// cancelled. The harness recovers it and renders a watchdog or
// cancellation failure; everything else treats it as any other panic.
type Trip struct {
	// Events is how many charges had been spent when the trip fired.
	Events uint64
	// Limit is the configured event limit (0 when the trip came from
	// cancellation rather than exhaustion).
	Limit uint64
	// Cancelled is true when the trip came from Cancel rather than
	// from exhausting the event limit.
	Cancelled bool
}

// Error renders the trip; Trip implements error so recovered values
// print cleanly.
func (t Trip) Error() string {
	if t.Cancelled {
		return fmt.Sprintf("engine: run cancelled after %d events", t.Events)
	}
	return fmt.Sprintf("engine: event budget exhausted (%d of %d events)", t.Events, t.Limit)
}

// Charge books n events against the budget and panics with a Trip when
// the limit is exhausted or the budget has been cancelled. A nil
// receiver is unlimited. Called from //p8:hotpath loops, so the
// cancellation atomic is polled only every cancelCheckMask+1 charges.
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
	if b.spent&cancelCheckMask < n && b.cancelled.Load() {
		panic(Trip{Events: b.spent, Cancelled: true})
	}
}

// ChargeBatch books one barrier round's worth of shard-loop events.
// It is Charge with an unconditional cancellation check: barriers are
// rare (one per lookahead window, not one per event), so the poll is
// not amortized away, and a cancelled sharded run trips at the next
// barrier no matter how the round total lands against the mask. The
// trip arithmetic is identical to Charge's, so a sharded run renders
// the exact same Trip as the sequential engine. A nil receiver is
// unlimited.
func (b *Budget) ChargeBatch(n uint64) {
	if b == nil {
		return
	}
	b.spent += n
	if b.limit > 0 && b.spent > b.limit {
		b.spent = b.limit
		panic(Trip{Events: b.spent, Limit: b.limit})
	}
	if b.cancelled.Load() {
		panic(Trip{Events: b.spent, Cancelled: true})
	}
}

// RoundCap returns how many events one shard loop may execute between
// barriers before it must stop and let the coordinator's ChargeBatch
// trip: the remaining allowance plus the one overflowing event (so the
// barrier charge exceeds the limit exactly as a sequential overrun
// would). 0 means unlimited (nil or no event limit).
func (b *Budget) RoundCap() uint64 {
	if b == nil || b.limit == 0 {
		return 0
	}
	// spent never exceeds limit (Charge/ChargeBatch clamp on trip).
	return b.limit - b.spent + 1
}

// Cancel trips the budget from any goroutine: the next polled charge
// panics with a cancellation Trip. Idempotent.
func (b *Budget) Cancel() {
	if b != nil {
		b.cancelled.Store(true)
	}
}

// Cancelled reports whether Cancel has been called.
func (b *Budget) Cancelled() bool {
	return b != nil && b.cancelled.Load()
}
