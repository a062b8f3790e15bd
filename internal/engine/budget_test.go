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
	if b.Spent() != 0 || b.Limit() != 0 || b.Cancelled() {
		t.Error("nil budget accessors not zero")
	}
	b.Cancel() // must not panic
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
	if tr.Cancelled || tr.Events != 100 || tr.Limit != 100 {
		t.Errorf("trip = %+v, want exhaustion at 100 of 100", tr)
	}
	if !strings.Contains(tr.Error(), "event budget exhausted (100 of 100 events)") {
		t.Errorf("Error() = %q", tr.Error())
	}
}

func TestBudgetZeroLimitOnlyCancels(t *testing.T) {
	b := NewBudget(0)
	if tr := trips(func() { b.Charge(1 << 20) }); tr != nil {
		t.Fatalf("unlimited budget tripped: %v", tr)
	}
	b.Cancel()
	if !b.Cancelled() {
		t.Fatal("Cancel did not mark the budget")
	}
	tr := trips(func() {
		for i := 0; i < 2*cancelCheckMask; i++ {
			b.Charge(1)
		}
	})
	if tr == nil {
		t.Fatal("cancelled budget never tripped within two poll windows")
	}
	if !tr.Cancelled {
		t.Errorf("trip = %+v, want cancellation", tr)
	}
	if !strings.Contains(tr.Error(), "run cancelled after") {
		t.Errorf("Error() = %q", tr.Error())
	}
}

func TestBudgetLargeChargesPollCancellation(t *testing.T) {
	// Charges bigger than the poll mask must still observe the flag:
	// spent&mask < n holds on every charge with n > mask.
	b := NewBudget(0)
	b.Cancel()
	if tr := trips(func() { b.Charge(cancelCheckMask + 1) }); tr == nil || !tr.Cancelled {
		t.Fatalf("large charge missed the cancellation flag: %v", tr)
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
