package main

import (
	"reflect"
	"testing"
)

func plans(seed uint64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = faultPlan(seed, i).String()
	}
	return out
}

type job struct {
	kind      int
	faultSeed uint64
}

func jobs(seed uint64, n int) []job {
	out := make([]job, n)
	for i := range out {
		out[i].kind, out[i].faultSeed = jobAt(seed, i)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := plans(7, 20), plans(7, 20); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 fault plans differ between calls:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(plans(7, 20), plans(8, 20)) {
		t.Error("seeds 7 and 8 generate the same fault plans")
	}
	if a, b := jobs(7, 500), jobs(7, 500); !reflect.DeepEqual(a, b) {
		t.Error("seed 7 job sequences differ between calls")
	}
	if reflect.DeepEqual(jobs(7, 500), jobs(8, 500)) {
		t.Error("seeds 7 and 8 generate the same job sequence")
	}
}

func TestJobBlocksKeepTheMix(t *testing.T) {
	seen := map[uint64]bool{}
	js := jobs(3, 1000)
	for b := 0; b < len(js); b += blockLen {
		var kinds [blockLen]int
		for _, j := range js[b : b+blockLen] {
			kinds[j.kind]++
			if (j.kind == coldJob) != (j.faultSeed != 0) {
				t.Fatalf("job %+v: a fault seed belongs to cold jobs only", j)
			}
			if j.kind == coldJob {
				if seen[j.faultSeed] {
					t.Fatalf("fault seed %d repeats within a run", j.faultSeed)
				}
				seen[j.faultSeed] = true
			}
		}
		if kinds != [blockLen]int{1, 1, 1, 1, 1} {
			t.Fatalf("block %d has kinds %v, want one of each", b/blockLen, kinds)
		}
	}
}
