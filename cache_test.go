package power8

// Tests for content-addressed result memoization: warm runs serve
// bit-identical reports without re-executing, FAILED / tripped reports
// never enter the cache, instrumented runs bypass report reuse, a disk
// entry that is not a completed report of its experiment is deleted
// and recomputed, and the request key honours its inclusion contract.

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/parallel"
)

// countingSuite builds a deterministic stub suite whose executions are
// observable — the unit-level stand-in for "did the cache re-run it?".
func countingSuite(runs *atomic.Int64) []Experiment {
	mk := func(id string) Experiment {
		return Experiment{ID: id, Title: "stub " + id, Run: func(ctx *experiments.Context) *experiments.Report {
			runs.Add(1)
			r := &experiments.Report{ID: id, Title: "stub " + id}
			r.Printf("quick=%v", ctx.Quick)
			r.CheckMin("always", 1, 0)
			return r
		}}
	}
	return []Experiment{mk("stub-a"), mk("stub-b"), mk("stub-c")}
}

func newTestCache(t *testing.T, opts CacheOptions) *SuiteCache {
	t.Helper()
	sc, err := NewSuiteCache(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestSuiteCacheWarmRun: the second identical RunSuite executes nothing
// and returns byte-identical reports.
func TestSuiteCacheWarmRun(t *testing.T) {
	var runs atomic.Int64
	suite := countingSuite(&runs)
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()

	cold := RunSuite(suite, m, RunOptions{Workers: 2, Cache: cache})
	if got := runs.Load(); got != 3 {
		t.Fatalf("cold run executed %d experiments, want 3", got)
	}
	warm := RunSuite(suite, m, RunOptions{Workers: 2, Cache: cache})
	if got := runs.Load(); got != 3 {
		t.Fatalf("warm run re-executed experiments (total %d runs, want 3)", got)
	}
	for i := range cold {
		a, _ := json.Marshal(cold[i])
		b, _ := json.Marshal(warm[i])
		if string(a) != string(b) {
			t.Errorf("%s: warm report differs from cold:\n%s\n%s", cold[i].ID, a, b)
		}
	}
}

// TestSuiteCacheKeySensitivity: changing a key input (Quick) recomputes;
// repeating it hits again.
func TestSuiteCacheKeySensitivity(t *testing.T) {
	var runs atomic.Int64
	suite := countingSuite(&runs)
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()

	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache})
	RunSuite(suite, m, RunOptions{Workers: 1, Quick: true, Cache: cache})
	if got := runs.Load(); got != 6 {
		t.Fatalf("quick-mode change did not recompute (%d runs, want 6)", got)
	}
	RunSuite(suite, m, RunOptions{Workers: 1, Quick: true, Cache: cache})
	if got := runs.Load(); got != 6 {
		t.Fatalf("repeated quick run recomputed (%d runs, want 6)", got)
	}
}

// TestRequestKeyShardCountExcluded is the PR-6 contract carried into the
// cache: sharded and sequential runs are bit-identical, so a report
// computed at any shard count must serve every other. Worker count is
// equally excluded. The kernel worker-team size
// (-kernelworkers) is included.
func TestRequestKeyShardCountExcluded(t *testing.T) {
	m := NewE870()
	e := Experiment{ID: "x"}
	base := requestKey(m, e, RunOptions{})
	same := []RunOptions{
		{Shards: 1}, {Shards: 8}, {Workers: 3},
	}
	for _, opts := range same {
		if requestKey(m, e, opts) != base {
			t.Errorf("options %+v changed the request key; they must not", opts)
		}
	}
	plan, err := fault.Parse("guard:0:1")
	if err != nil {
		t.Fatal(err)
	}
	diff := []RunOptions{{Quick: true}, {Faults: plan}}
	for _, opts := range diff {
		if requestKey(m, e, opts) == base {
			t.Errorf("options %+v did not change the request key; they must", opts)
		}
	}
	if requestKey(m, Experiment{ID: "y"}, RunOptions{}) == base {
		t.Error("experiment id is not in the request key")
	}
	parallel.SetDefaultWorkers(parallel.Workers(0) + 1)
	defer parallel.SetDefaultWorkers(0)
	if requestKey(m, e, RunOptions{}) == base {
		t.Error("kernel worker-team size is not in the request key")
	}
}

// TestSuiteCacheNeverStoresFailed: a panic produces a FAILED report,
// and it may not be served to a later identical request.
func TestSuiteCacheNeverStoresFailed(t *testing.T) {
	m := NewE870()

	t.Run("panic", func(t *testing.T) {
		var runs atomic.Int64
		cache := newTestCache(t, CacheOptions{})
		e := Experiment{ID: "boom", Run: func(*experiments.Context) *experiments.Report {
			runs.Add(1)
			panic("injected")
		}}
		for i := 0; i < 2; i++ {
			rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache})[0]
			if !rep.Failed() {
				t.Fatal("sabotaged experiment did not fail")
			}
		}
		if got := runs.Load(); got != 2 {
			t.Errorf("failed report was served from cache (%d runs, want 2)", got)
		}
		if n := cache.Reports().Len(); n != 0 {
			t.Errorf("%d failed reports resident in cache, want 0", n)
		}
	})
}

// TestSuiteCacheBypassedUnderStats: instrumented runs must re-execute —
// counters describe the run that happened — while uninstrumented runs
// against the same cache still hit.
func TestSuiteCacheBypassedUnderStats(t *testing.T) {
	var runs atomic.Int64
	suite := countingSuite(&runs)
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()

	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache})
	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache, Stats: NewStatsRegistry("t")})
	if got := runs.Load(); got != 6 {
		t.Fatalf("instrumented run used the report cache (%d runs, want 6)", got)
	}
	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache})
	if got := runs.Load(); got != 6 {
		t.Fatalf("uninstrumented rerun missed the cache (%d runs, want 6)", got)
	}
}

// TestSuiteCacheRetryInteraction: the harness never retries, so a
// retry is the caller running the suite again. A flaky experiment's
// failed first run stores nothing, the caller's rerun computes and
// stores the success, and a third run hits without executing.
func TestSuiteCacheRetryInteraction(t *testing.T) {
	var runs atomic.Int64
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()
	e := Experiment{ID: "flaky", Run: func(*experiments.Context) *experiments.Report {
		if runs.Add(1) == 1 {
			panic("transient")
		}
		return &experiments.Report{ID: "flaky"}
	}}
	if rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache})[0]; !rep.Failed() {
		t.Fatal("first run did not fail")
	}
	for i := 0; i < 2; i++ {
		if rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache})[0]; rep.Failed() {
			t.Fatalf("run %d failed: %s", i+2, rep.Err)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (fail, then succeed; the third run is warm)", got)
	}
}

// TestSuiteCacheDiskWarmProcess: a fresh SuiteCache over the same
// directory — a new process in miniature — serves the previous cache's
// reports without executing anything.
func TestSuiteCacheDiskWarmProcess(t *testing.T) {
	dir := t.TempDir()
	m := NewE870()
	var runs atomic.Int64
	suite := countingSuite(&runs)

	cold := newTestCache(t, CacheOptions{Dir: dir})
	first := RunSuite(suite, m, RunOptions{Workers: 1, Cache: cold})

	warm := newTestCache(t, CacheOptions{Dir: dir})
	second := RunSuite(suite, m, RunOptions{Workers: 1, Cache: warm})
	if got := runs.Load(); got != 3 {
		t.Fatalf("cross-cache warm run executed experiments (%d total runs, want 3)", got)
	}
	for i := range first {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Errorf("%s: disk-served report differs from computed", first[i].ID)
		}
	}
}

// writeEntry plants data as the disk entry of experiment e's request
// under dir and returns the entry's path.
func writeEntry(t testing.TB, dir string, m *Machine, e Experiment, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, requestKey(m, e, RunOptions{}).String())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkServed fails unless rep passes the disk-read check for e: a
// completed report of that experiment.
func checkServed(t testing.TB, e Experiment, rep *Report) {
	t.Helper()
	if rep == nil || rep.ID != e.ID || rep.Failed() {
		t.Fatalf("served a report that fails the entry check: %+v", rep)
	}
}

// TestSuiteCacheRejectsStrayEntries: valid JSON that is not a completed
// report of the requested experiment is not a warm report. LoadReport
// refuses it, the entry is deleted and counted under
// disk/corrupt_deleted, and RunSuite recomputes the experiment.
func TestSuiteCacheRejectsStrayEntries(t *testing.T) {
	m := NewE870()
	var runs atomic.Int64
	suite := countingSuite(&runs)
	e := suite[0]
	other, err := json.Marshal(&Report{ID: suite[1].ID, Title: suite[1].Title})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := json.Marshal(&Report{ID: e.ID, Title: e.Title, Err: "panic: injected"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty object", []byte("{}")},
		{"null", []byte("null")},
		{"another experiment", other},
		{"failed report", failed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := NewStatsRegistry("t")
			cache, err := NewSuiteCache(CacheOptions{Dir: dir}, reg)
			if err != nil {
				t.Fatal(err)
			}
			deleted := reg.Child("memo").Child("reports").Child("disk").Counter("corrupt_deleted")

			path := writeEntry(t, dir, m, e, tc.data)
			if rep, ok := cache.LoadReport(e, m, RunOptions{}); ok {
				t.Fatalf("LoadReport served %+v", rep)
			}
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("rejected entry still on disk: %v", err)
			}
			if got := deleted.Load(); got != 1 {
				t.Errorf("corrupt_deleted = %d after LoadReport, want 1", got)
			}

			writeEntry(t, dir, m, e, tc.data)
			before := runs.Load()
			var fromCache bool
			rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache,
				OnReport: func(_ int, _ *Report, fc bool) { fromCache = fc }})[0]
			checkServed(t, e, rep)
			if fromCache || runs.Load() != before+1 {
				t.Errorf("stray entry served as warm (fromCache %v, runs %d -> %d)", fromCache, before, runs.Load())
			}
			if got := deleted.Load(); got != 2 {
				t.Errorf("corrupt_deleted = %d after RunSuite, want 2", got)
			}
		})
	}
}

// FuzzReportEntry writes arbitrary bytes as a report's disk entry and
// reads it back through LoadReport and a cached RunSuite. Neither may
// panic or serve a report that fails the entry check, and an entry
// LoadReport rejects must be gone from disk.
func FuzzReportEntry(f *testing.F) {
	m := NewE870()
	var runs atomic.Int64
	e := countingSuite(&runs)[0]
	valid, err := json.Marshal(e.Run(&experiments.Context{Machine: m}))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{nil, valid[:len(valid)/2], []byte("{}"), []byte("null"), valid} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		cache, err := NewSuiteCache(CacheOptions{Dir: dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		path := writeEntry(t, dir, m, e, data)
		if rep, ok := cache.LoadReport(e, m, RunOptions{}); ok {
			checkServed(t, e, rep)
		} else if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("rejected entry still on disk: %v", err)
		}

		cache, err = NewSuiteCache(CacheOptions{Dir: dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		writeEntry(t, dir, m, e, data)
		rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache})[0]
		checkServed(t, e, rep)
	})
}

// TestFaultSuiteWarmIdentical runs the real degradation suite cold and
// warm through one cache and demands bit-identical reports — the
// end-to-end form of the warm-run contract, over experiments that
// exercise fault derivation and the sharded DES.
func TestFaultSuiteWarmIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick degradation suite")
	}
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()
	opts := RunOptions{Quick: true, Workers: 2, Cache: cache}
	cold := RunSuite(FaultExperiments(), m, opts)
	warm := RunSuite(FaultExperiments(), m, opts)
	if len(cold) != len(warm) || len(cold) == 0 {
		t.Fatalf("report counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		if cold[i].Failed() {
			t.Fatalf("%s failed cold: %s", cold[i].ID, cold[i].Err)
		}
		if !reflect.DeepEqual(cold[i].Lines, warm[i].Lines) {
			t.Errorf("%s: warm lines differ from cold", cold[i].ID)
		}
		if !reflect.DeepEqual(cold[i].Checks, warm[i].Checks) {
			t.Errorf("%s: warm checks differ from cold", cold[i].ID)
		}
	}
}
