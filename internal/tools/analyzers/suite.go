// Package analyzers collects the p8lint analyzer suite: the
// machine-checked contracts the simulator's correctness and
// reproducibility arguments rest on. Each analyzer owns one contract
// and checks it wherever it reaches: determinism, frozenmachine and
// hotpath check a function body and chase the same rules through the
// whole-program call graph in one pass; the servicecheck family guards
// the long-running service layer; reach reports the functions no root
// reaches (every main and init, the exported API of importable
// packages, package-level initializers, standard-library interface
// methods, and whatever another package's tests refer to). The full
// list: determinism, frozenmachine, fsyncsafe, hotpath, isolation,
// nilsafe, reach, teamuse, httpstatus, mutexheld and goleak.
// cmd/p8lint runs the suite from the command line and CI; the
// per-analyzer packages carry the rules and their golden tests.
package analyzers

import (
	"repro/internal/tools/analyzers/analysis"
	"repro/internal/tools/analyzers/determinism"
	"repro/internal/tools/analyzers/frozenmachine"
	"repro/internal/tools/analyzers/fsyncsafe"
	"repro/internal/tools/analyzers/hotpath"
	"repro/internal/tools/analyzers/isolation"
	"repro/internal/tools/analyzers/nilsafe"
	"repro/internal/tools/analyzers/reach"
	"repro/internal/tools/analyzers/servicecheck"
	"repro/internal/tools/analyzers/teamuse"
)

// All returns the full p8lint suite in stable order: the simulator
// contracts first, then the service-layer family.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		frozenmachine.Analyzer,
		fsyncsafe.Analyzer,
		hotpath.Analyzer,
		isolation.Analyzer,
		nilsafe.Analyzer,
		reach.Analyzer,
		teamuse.Analyzer,
		servicecheck.HTTPStatus,
		servicecheck.MutexHeld,
		servicecheck.GoLeak,
	}
}
