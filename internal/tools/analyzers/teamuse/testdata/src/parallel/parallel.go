// Package parallel is a golden stand-in for repro/internal/parallel:
// the analyzer keys on the package name and the Team type.
package parallel

// Team is a persistent worker team.
type Team struct{ workers int }

// NewTeam builds a team with the given worker count.
func NewTeam(workers int) *Team { return &Team{workers: workers} }

// Workers reports the worker count.
func (t *Team) Workers() int { return t.workers }

// Close shuts the team down.
func (t *Team) Close() {}

// ParallelFor runs body over [0, n) with dynamic chunking.
func (t *Team) ParallelFor(n, grain int, body func(lo, hi int)) { body(0, n) }

// ParallelForWorker is ParallelFor with the worker id exposed.
func (t *Team) ParallelForWorker(n, grain int, body func(w, lo, hi int)) { body(0, 0, n) }

// StaticFor runs body over a static partition of [0, n).
func (t *Team) StaticFor(n int, body func(w, lo, hi int)) { body(0, 0, n) }

// For runs body on a transient team.
func For(workers, n, grain int, body func(lo, hi int)) { body(0, n) }

// ForWorker is For with the worker id exposed.
func ForWorker(workers, n, grain int, body func(w, lo, hi int)) { body(0, 0, n) }

// StaticFor runs body over a static partition on a transient team.
func StaticFor(workers, n int, body func(w, lo, hi int)) { body(0, 0, n) }
