package engine

import (
	"strings"
	"testing"
)

// trips runs f and returns the Trip it panicked with, or nil.
func trips(f func()) *Trip {
	var tripped *Trip
	func() {
		defer func() {
			if cause := recover(); cause != nil {
				t := cause.(Trip)
				tripped = &t
			}
		}()
		f()
	}()
	return tripped
}

func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	if tr := trips(func() { b.Charge(1 << 40) }); tr != nil {
		t.Fatalf("nil budget tripped: %v", tr)
	}
	if b.Spent() != 0 || b.Limit() != 0 {
		t.Error("nil budget accessors not zero")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	b := NewBudget(100)
	for i := 0; i < 100; i++ {
		b.Charge(1)
	}
	if b.Spent() != 100 {
		t.Fatalf("spent = %d, want 100", b.Spent())
	}
	tr := trips(func() { b.Charge(1) })
	if tr == nil {
		t.Fatal("charge past the limit did not trip")
	}
	if tr.Events != 100 || tr.Limit != 100 {
		t.Errorf("trip = %+v, want exhaustion at 100 of 100", tr)
	}
	if !strings.Contains(tr.Error(), "event budget exhausted (100 of 100 events)") {
		t.Errorf("Error() = %q", tr.Error())
	}
}

// TestBudgetZeroLimitNeverTrips: a zero limit is no limit.
func TestBudgetZeroLimitNeverTrips(t *testing.T) {
	b := NewBudget(0)
	if tr := trips(func() { b.Charge(1 << 20) }); tr != nil {
		t.Fatalf("unlimited budget tripped: %v", tr)
	}
	if cap := b.RoundCap(); cap != 0 {
		t.Errorf("unlimited budget round cap %d, want 0", cap)
	}
}

// Spent returns the number of events charged so far.
func (b *Budget) Spent() uint64 {
	if b == nil {
		return 0
	}
	return b.spent
}

// Limit returns the configured event limit (0 = unlimited).
func (b *Budget) Limit() uint64 {
	if b == nil {
		return 0
	}
	return b.limit
}
