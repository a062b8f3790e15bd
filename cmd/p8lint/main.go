// Command p8lint runs the repo's custom static-analysis suite: the
// analyzers that turn the codebase's prose contracts — obs nil-safety,
// hot-path allocation discipline, simulator determinism, the frozen
// Machine, kernel-runtime usage, and the service layer's concurrency
// rules — into machine-checked rules, including the interprocedural
// passes that chase those contracts through the call graph. See
// DESIGN.md "Static analysis" for the rules and the //p8:allow
// suppression protocol.
//
// Usage:
//
//	p8lint [-list] [-json] [-suppressions] [-budget file] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Findings print as file:line:col: analyzer: message; any finding
// makes the exit status 1, and a load or type error makes it 2.
//
// -json replaces the text output with a machine-readable report: one
// JSON array of records {file, line, col, analyzer, message,
// suppressed, justification} covering surviving findings and
// suppressed ones alike (CI uploads it as the lint artifact). The exit
// status still reflects only unsuppressed findings.
//
// -suppressions prints the suppression-debt report instead of linting
// output: every //p8:allow directive with its justification, plus the
// total against the checked-in budget (-budget, default
// .p8lint-budget at the module root). Exceeding the budget exits 1 —
// growing the waiver list is a reviewed decision, not drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/tools/analyzers"
	"repro/internal/tools/analyzers/analysis"
)

// budgetFile is the default suppression-budget filename, relative to
// the module root.
const budgetFile = ".p8lint-budget"

func main() {
	var (
		list         = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut      = flag.Bool("json", false, "emit findings (and suppressions) as a JSON report")
		suppressions = flag.Bool("suppressions", false, "print the //p8:allow debt report and check it against the budget")
		budgetPath   = flag.String("budget", budgetFile, "suppression budget file, relative to the module root")
	)
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, root, err := LintDetailed(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p8lint:", err)
		os.Exit(2)
	}

	if *suppressions {
		os.Exit(reportSuppressions(res.Allows, filepath.Join(root, *budgetPath)))
	}
	if *jsonOut {
		if err := writeReport(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "p8lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Findings {
			fmt.Println(d)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "p8lint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// LintDetailed loads the patterns against the module containing dir
// and runs the full suite, returning the full result — surviving and
// suppressed findings and the allow inventory — plus the resolved
// module root.
func LintDetailed(dir string, patterns []string) (*analysis.Result, string, error) {
	loader, err := analysis.NewModuleLoader(dir)
	if err != nil {
		return nil, "", err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, "", err
	}
	res, err := analysis.RunDetailed(loader.Fset, pkgs, analyzers.All())
	if err != nil {
		return nil, "", err
	}
	return res, loader.ModuleDir, nil
}

// record is one line of the -json report.
type record struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Col           int    `json:"col"`
	Analyzer      string `json:"analyzer"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed"`
	Justification string `json:"justification,omitempty"`
}

// writeReport renders the machine-readable report: surviving findings
// first, suppressed ones after, both in position order.
func writeReport(out *os.File, res *analysis.Result) error {
	records := make([]record, 0, len(res.Findings)+len(res.Suppressed))
	for _, batch := range [][]analysis.Diagnostic{res.Findings, res.Suppressed} {
		for _, d := range batch {
			records = append(records, record{
				File:          d.Pos.Filename,
				Line:          d.Pos.Line,
				Col:           d.Pos.Column,
				Analyzer:      d.Analyzer,
				Message:       d.Message,
				Suppressed:    d.Suppressed,
				Justification: d.Justification,
			})
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// reportSuppressions prints the debt report and returns the exit code:
// 1 when the directive count exceeds the checked-in budget, 0
// otherwise (including when no budget file exists — then the report is
// informational).
func reportSuppressions(allows []analysis.Allow, budgetPath string) int {
	for _, a := range allows {
		fmt.Printf("%s:%d: %s: %s\n", a.File, a.Line, a.Analyzer, a.Justification)
	}
	budget, ok, err := readBudget(budgetPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p8lint:", err)
		return 2
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "p8lint: %d suppression(s); no budget file at %s (informational)\n", len(allows), budgetPath)
		return 0
	}
	if len(allows) > budget {
		fmt.Fprintf(os.Stderr, "p8lint: %d suppression(s) exceed the budget of %d in %s — remove a waiver or raise the budget in review\n",
			len(allows), budget, budgetPath)
		return 1
	}
	fmt.Fprintf(os.Stderr, "p8lint: %d suppression(s) within the budget of %d\n", len(allows), budget)
	return 0
}

// readBudget parses the budget file: one integer, comments (#) and
// blank lines ignored. ok is false when the file does not exist.
func readBudget(path string) (budget int, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return 0, false, fmt.Errorf("%s: budget must be one integer, got %q", path, line)
		}
		return n, true, nil
	}
	return 0, false, fmt.Errorf("%s: no budget line found", path)
}
