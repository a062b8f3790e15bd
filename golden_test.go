package power8

// Golden files for the quick suites. The report goldens hold every
// line, note and check a report renders, except the ones marked as host
// measurements (Report.Hostf, Check.Host), which differ run to run. The
// counter goldens hold every per-experiment counter. A change that moves
// simulated or projected output, or the work behind it, moves a golden.
// Regenerate all four on purpose with
//
//	go test -run 'TestRunAllQuick|TestObservedCountersDeterministicAndIsolated|TestFaultSuiteDeterministic' -update .
//
// and explain every moved line in the change description.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// counterText renders every per-experiment counter of instrumented
// reports as sorted "path value" lines. The harness's own scope is left
// out: it holds no simulated work.
func counterText(t *testing.T, reps []*Report) string {
	t.Helper()
	var lines []string
	for _, r := range reps {
		if r.Stats == nil {
			t.Fatalf("%s: instrumented run left Stats nil", r.ID)
		}
		for path, v := range r.Stats.CounterMap() {
			if !strings.HasPrefix(path, r.ID+"/harness/") {
				lines = append(lines, fmt.Sprintf("%s %d", path, v))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// goldenBlock returns experiment id's records from the report golden
// testdata/name, as goldenText renders that one report.
func goldenBlock(t *testing.T, name, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	in := false
	for _, l := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(l, "== ") {
			in = strings.HasPrefix(l, "== "+id+" ")
		}
		if in {
			b.WriteString(l)
		}
	}
	if b.Len() == 0 {
		t.Fatalf("testdata/%s has no block for %s", name, id)
	}
	return b.String()
}

// checkGolden compares got against testdata/name. Under -update a
// writer rewrites the file instead; every other caller still compares,
// so a second pass is held to what the first one wrote. A mismatch
// names the first 20 differing lines.
func checkGolden(t *testing.T, name, got string, writer bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update && writer {
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
