package other

import (
	"testing"

	"app/internal/support"
)

func TestWork(t *testing.T) {
	r := support.Fake()
	r.Record()
	if Work() != 4 {
		t.Fatal("wrong")
	}
}
