package runreq

import (
	"reflect"
	"testing"
)

// TestRender: Error names request fields as the JSON body does, and a
// front end can spell them its own way.
func TestRender(t *testing.T) {
	_, err := Resolve(Request{Faults: "worst-day", FaultSeed: 7}, Machines())
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("Resolve error %T, want *Error", err)
	}
	if got, want := e.Error(), "faults and faultseed are mutually exclusive; pick one plan source"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	flag := e.Render(func(field string) string { return "-" + field })
	if want := "-faults and -faultseed are mutually exclusive; pick one plan source"; flag != want {
		t.Errorf("Render = %q, want %q", flag, want)
	}
}

// TestSeededRequestIsFixpoint: a seeded request normalizes to one that
// spells its plan out and still carries the seed, and that form
// resolves to itself with the same plan.
func TestSeededRequestIsFixpoint(t *testing.T) {
	machines := Machines()
	run, err := Resolve(Request{FaultSeed: 42}, machines)
	if err != nil {
		t.Fatal(err)
	}
	norm := run.Request
	if norm.Suite != "degradation" || norm.Faults != run.Plan.String() || norm.FaultSeed != 42 || len(run.Experiments) != 4 {
		t.Fatalf("normalized seeded request = %+v", norm)
	}
	again, err := Resolve(norm, machines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Request, norm) || !reflect.DeepEqual(again.Plan, run.Plan) {
		t.Fatalf("re-resolve moved the request or plan:\n%+v\n%+v", norm, again.Request)
	}
}
