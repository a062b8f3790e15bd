package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/runreq"
)

// FuzzResolve drives a submit body the way POST /v1/jobs reads it —
// decode, runreq.Resolve, job fingerprint — and checks it never panics.
// An accepted request must resolve again, from the JSON of its
// normalized form, to the same request and fingerprint: journal replay
// (rebuildJob) re-resolves exactly that JSON and drops any job whose
// fingerprint moved.
func FuzzResolve(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"experiments": ["table3", "figure2"], "quick": true}`,
		`{"spec": "max-smp", "suite": "degradation", "shards": 4}`,
		`{"faults": "worst-day", "experiments": ["deg-plan"]}`,
		`{"faultseed": 7, "workers": 2, "stats": true}`,
		`{"faults": "xlane:0-1:0.5,guard:1:2"}`,
		`{"spec": "z15"}`,
		`{"suite": "microbench"}`,
		`{"experiments": ["table99"]}`,
		`{"experiments": ["table3", "table3"]}`,
		`{"faults": "meteor:3"}`,
		`{"faults": "guard:99:2"}`,
		`{"suite": "paper", "faults": "worst-day"}`,
		`{"faults": "worst-day", "faultseed": 7}`,
		`{"shards": 3}`,
		`{"workers": -1}`,
	} {
		f.Add([]byte(body))
	}
	machines := runreq.Machines()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		run, err := runreq.Resolve(req, machines)
		if err != nil {
			if _, ok := err.(*runreq.Error); !ok || err.Error() == "" {
				t.Fatalf("rejection %T %q is not a client message", err, err)
			}
			return
		}
		norm := run.Request
		if len(run.Experiments) != len(norm.Experiments) || run.Machine == nil {
			t.Fatalf("resolved %d experiments for %d ids (machine %v)", len(run.Experiments), len(norm.Experiments), run.Machine)
		}
		fp := fingerprintJob(run)

		data, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var again Request
		if err := json.Unmarshal(data, &again); err != nil {
			t.Fatal(err)
		}
		run2, err := runreq.Resolve(again, machines)
		if err != nil {
			t.Fatalf("normalized request %s no longer resolves: %v", data, err)
		}
		if !reflect.DeepEqual(run2.Request, norm) {
			t.Fatalf("re-resolve moved the request:\n%+v\n%+v", norm, run2.Request)
		}
		if fp2 := fingerprintJob(run2); fp2 != fp {
			t.Fatalf("re-resolve moved the fingerprint of %s: %s -> %s", data, fp, fp2)
		}
	})
}
