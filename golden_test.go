package power8

// Golden files for the quick suites: every line, note and check a report
// renders, except the ones marked as host measurements (Report.Hostf,
// Check.Host), which differ run to run. A change that moves simulated
// or projected output moves a golden. Regenerate on purpose with
//
//	go test -run 'TestRunAllQuick|TestFaultSuiteDeterministic' -update .
//
// and explain every moved line in the change description.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from this run")

// goldenText renders the deterministic content of reports, one prefixed
// record per rendered item: "==" the header, "L" a line, "N" a note, "C"
// a check as the report renders it. A host line keeps its place as "H"
// with no text, so the line count stays pinned; a host check keeps only
// its name.
func goldenText(reps []*Report) string {
	var b strings.Builder
	for _, r := range reps {
		b.WriteString("== " + r.ID + " " + r.Title + "\n")
		if r.Failed() {
			b.WriteString("FAILED\n")
		}
		for i, l := range r.Lines {
			if r.IsHostLine(i) {
				b.WriteString("H\n")
				continue
			}
			b.WriteString("L " + l + "\n")
		}
		for _, n := range r.Notes {
			b.WriteString("N " + n + "\n")
		}
		for _, c := range r.Checks {
			if c.Host {
				b.WriteString("C host: " + c.Name + "\n")
				continue
			}
			b.WriteString("C " + c.String() + "\n")
		}
	}
	return b.String()
}

// checkGolden compares reps against testdata/name, or rewrites that file
// under -update. A mismatch names the first 20 differing lines.
func checkGolden(t *testing.T, name string, reps []*Report) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := goldenText(reps)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl && shown < 20 {
			t.Errorf("%s:%d\n  got:  %q\n  want: %q", path, i+1, gl, wl)
			shown++
		}
	}
	t.Errorf("%s: %d of the differing lines shown; rerun with -update if the move is deliberate", path, shown)
}
