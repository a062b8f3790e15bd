package support

import "testing"

func TestCount(t *testing.T) {
	r := Fake()
	r.Record()
	if r.Count() != 1 {
		t.Fatal("wrong count")
	}
}
