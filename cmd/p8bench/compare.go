package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison, per metric and workload.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares a metric's runs on the base and head commits. The
// head is better when every head run beats every base run; otherwise,
// when either side's interquartile spread is wider than the bound, the
// difference cannot be told from noise and the verdict is unresolved;
// otherwise the medians decide against the bound.
func verdict(m e2eMetric, base, head []float64) string {
	beats := func(h, b float64) bool {
		if m.Better == "higher" {
			return h > b
		}
		return h < b
	}
	if len(base) >= 2 && len(head) >= 2 {
		all := true
		for _, h := range head {
			for _, b := range base {
				all = all && beats(h, b)
			}
		}
		if all {
			return verdictBetter
		}
	}
	bm, hm := median(base), median(head)
	if bm == 0 || math.Max(spread(base), spread(head)) > m.Bound {
		return verdictUnresolved
	}
	worse := (hm - bm) / bm
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return verdictWorse
	case -worse > m.Bound:
		return verdictBetter
	default:
		return verdictUnchanged
	}
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runCompare prints one row per workload and metric and exits 1 when
// any metric is worse by more than its bound.
func runCompare(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 2
	}
	head, err := readResults(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-11s %-12s %14s %14s %9s %6s %7s  %s\n",
		"workload", "metric", "base median", "head median", "head/base", "bound", "spread", "verdict")
	code := 0
	for _, w := range allWorkloads {
		for _, m := range endToEnd {
			bv, hv := values(base.Runs[w.name], m.Name), values(head.Runs[w.name], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Fprintf(stdout, "%-11s %-12s missing (base %d runs, head %d runs)\n", w.name, m.Name, len(bv), len(hv))
				continue
			}
			v := verdict(m, bv, hv)
			if v == verdictWorse {
				code = 1
			}
			bm, hm := median(bv), median(hv)
			fmt.Fprintf(stdout, "%-11s %-12s %10.4g %-3s %10.4g %-3s %9.3f %6s %7s  %s (n=%d/%d)\n",
				w.name, m.Name, bm, m.Unit, hm, m.Unit, hm/bm, pct(m.Bound),
				pct(math.Max(spread(bv), spread(hv))), v, len(bv), len(hv))
		}
	}
	return code
}
