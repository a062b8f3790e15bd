package memo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/obs"
)

func computeBytes(data []byte, store bool, calls *atomic.Int64) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) {
		if calls != nil {
			calls.Add(1)
		}
		return data, store, nil
	}
}

// TestDiskRoundTrip: a second cache over the same directory — a fresh
// process in miniature — must serve the first cache's results without
// recomputing.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cold := New("t", 0, nil)
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	payload := []byte(`{"report":"table3"}`)
	data, hit, err := cold.DoBytes(key(1), nil, computeBytes(payload, true, &calls))
	if err != nil || hit || !bytes.Equal(data, payload) {
		t.Fatalf("cold DoBytes = (%q, %v, %v)", data, hit, err)
	}

	// The entry landed under its full fingerprint hex, no temp litter.
	if _, err := os.Stat(filepath.Join(dir, key(1).String())); err != nil {
		t.Fatalf("no content-addressed file for key: %v", err)
	}
	glob, _ := filepath.Glob(filepath.Join(dir, "tmp-*"))
	if len(glob) != 0 {
		t.Fatalf("temp files left behind: %v", glob)
	}

	warm := New("t", 0, nil)
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	data, hit, err = warm.DoBytes(key(1), nil, computeBytes(nil, true, &calls))
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("warm DoBytes = (%q, %v, %v)", data, hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times across cold+warm caches, want 1", calls.Load())
	}
	// A disk-promoted entry is a memory hit afterwards.
	if _, hit, _ := warm.DoBytes(key(1), nil, computeBytes(nil, true, nil)); !hit {
		t.Error("disk-promoted entry did not become a memory hit")
	}
}

// TestDiskCorruptEntry: a failed validation deletes the entry and falls
// back to compute, so corruption cannot permanently shadow results.
func TestDiskCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := New("t", 0, nil)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(9).String())
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(p []byte) error {
		if !bytes.HasPrefix(p, []byte("{")) {
			return errors.New("corrupt")
		}
		return nil
	}
	var calls atomic.Int64
	data, _, err := c.DoBytes(key(9), check, computeBytes([]byte("{}"), true, &calls))
	if err != nil || string(data) != "{}" || calls.Load() != 1 {
		t.Fatalf("corrupt entry did not fall through to compute: (%q, %v, %d calls)", data, err, calls.Load())
	}
	// The rewrite replaced the corrupt file with the good bytes.
	onDisk, err := os.ReadFile(path)
	if err != nil || string(onDisk) != "{}" {
		t.Fatalf("corrupt entry not replaced on disk: (%q, %v)", onDisk, err)
	}
}

// TestDiskNonStorableNotWritten: Store=false results must not persist.
func TestDiskNonStorableNotWritten(t *testing.T) {
	dir := t.TempDir()
	c := New("t", 0, nil)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DoBytes(key(2), nil, computeBytes([]byte("failed"), false, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key(2).String())); !os.IsNotExist(err) {
		t.Fatal("non-storable result was written to disk")
	}
}

func TestSetDirRejectsEmpty(t *testing.T) {
	c := New("t", 0, nil)
	if err := c.SetDir(""); err == nil {
		t.Fatal("SetDir(\"\") succeeded")
	}
	if c.Dir() != "" {
		t.Fatal("Dir() non-empty on a memory-only cache")
	}
}

func TestSetDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	c := New("t", 0, nil)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if c.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", c.Dir(), dir)
	}
	info, err := os.Stat(dir)
	if err != nil || !info.IsDir() {
		t.Fatalf("cache directory not created: %v", err)
	}
}

// TestDiskSharedDirectory: many keys, two caches, interleaved — the
// content-addressed naming keeps them from ever conflicting.
func TestDiskSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a := New("a", 0, nil)
	b := New("b", 0, nil)
	for _, c := range []*Cache{a, b} {
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 8; i++ {
		payload := []byte(fmt.Sprintf(`{"i":%d}`, i))
		if _, _, err := a.DoBytes(key(i), nil, computeBytes(payload, true, nil)); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 8; i++ {
		want := fmt.Sprintf(`{"i":%d}`, i)
		data, _, err := b.DoBytes(key(i), nil, func() ([]byte, bool, error) {
			return nil, false, errors.New("should have been served from disk")
		})
		if err != nil || string(data) != want {
			t.Fatalf("key %d: (%q, %v), want %q from disk", i, data, err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("%d files in shared dir, want 8", len(entries))
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Errorf("temp litter: %s", e.Name())
		}
	}
}

// TestDiskWriteRetries: an injected transient write failure is retried
// on a deterministic backoff and succeeds, with the attempt accounted
// under memo/<name>/disk/{write_errors,retries}.
func TestDiskWriteRetries(t *testing.T) {
	reg := obs.NewRegistry("root")
	c := New("t", 0, reg)
	mem := iofault.NewMem()
	// Fail the first content write; the retry's write passes.
	ffs := iofault.NewFaulty(mem, iofault.Fault{Op: iofault.OpWrite, N: 0, Kind: iofault.KindErr})
	if err := c.SetDirFS("cache", ffs); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.disk.sleep = func(d time.Duration) { slept = append(slept, d) }

	if _, _, err := c.DoBytes(key(3), nil, computeBytes([]byte("{}"), true, nil)); err != nil {
		t.Fatal(err)
	}
	if data, err := mem.ReadFile("cache/" + key(3).String()); err != nil || string(data) != "{}" {
		t.Fatalf("entry not on disk after retry: (%q, %v)", data, err)
	}
	disk := reg.Child("memo").Child("t").Child("disk")
	if got := disk.Counter("write_errors").Load(); got != 1 {
		t.Errorf("write_errors = %d, want 1", got)
	}
	if got := disk.Counter("retries").Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if len(slept) != 1 || slept[0] != diskWriteBackoff {
		t.Errorf("backoff schedule %v, want [%v]", slept, diskWriteBackoff)
	}
}

// TestDiskWriteGivesUp: a persistently failing disk exhausts the
// attempt budget without failing the request — the cache degrades to
// memory-only for that entry.
func TestDiskWriteGivesUp(t *testing.T) {
	reg := obs.NewRegistry("root")
	c := New("t", 0, reg)
	var faults []iofault.Fault
	for i := 0; i < diskWriteAttempts; i++ {
		faults = append(faults, iofault.Fault{Op: iofault.OpWrite, N: i, Kind: iofault.KindNoSpace})
	}
	mem := iofault.NewMem()
	ffs := iofault.NewFaulty(mem, faults...)
	if err := c.SetDirFS("cache", ffs); err != nil {
		t.Fatal(err)
	}
	c.disk.sleep = func(time.Duration) {}

	data, _, err := c.DoBytes(key(4), nil, computeBytes([]byte("{}"), true, nil))
	if err != nil || string(data) != "{}" {
		t.Fatalf("request failed with the disk down: (%q, %v)", data, err)
	}
	if _, err := mem.ReadFile("cache/" + key(4).String()); err == nil {
		t.Fatal("entry written despite every attempt failing")
	}
	disk := reg.Child("memo").Child("t").Child("disk")
	if got := disk.Counter("write_errors").Load(); got != diskWriteAttempts {
		t.Errorf("write_errors = %d, want %d", got, diskWriteAttempts)
	}
	if got := disk.Counter("retries").Load(); got != diskWriteAttempts-1 {
		t.Errorf("retries = %d, want %d", got, diskWriteAttempts-1)
	}
	// The in-memory copy still serves.
	if _, hit, _ := c.DoBytes(key(4), nil, computeBytes(nil, true, nil)); !hit {
		t.Error("entry not served from memory after disk write failure")
	}
}

// TestDiskCorruptDeletedCounter pins the corrupt-entry audit trail.
func TestDiskCorruptDeletedCounter(t *testing.T) {
	reg := obs.NewRegistry("root")
	c := New("t", 0, reg)
	mem := iofault.NewMem()
	if err := c.SetDirFS("cache", mem); err != nil {
		t.Fatal(err)
	}
	f, err := mem.Create("cache/" + key(5).String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	check := func(p []byte) error {
		if !bytes.HasPrefix(p, []byte("{")) {
			return errors.New("corrupt")
		}
		return nil
	}
	if _, _, err := c.DoBytes(key(5), check, computeBytes([]byte("{}"), true, nil)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Child("memo").Child("t").Child("disk").Counter("corrupt_deleted").Load(); got != 1 {
		t.Errorf("corrupt_deleted = %d, want 1", got)
	}
}

// TestGetBytes: read-only probe hits memory, promotes disk entries, and
// never computes.
func TestGetBytes(t *testing.T) {
	mem := iofault.NewMem()
	c := New("t", 0, nil)
	if err := c.SetDirFS("cache", mem); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetBytes(key(6), nil); ok {
		t.Fatal("GetBytes invented an absent entry")
	}
	if _, _, err := c.DoBytes(key(6), nil, computeBytes([]byte(`{"r":1}`), true, nil)); err != nil {
		t.Fatal(err)
	}
	if data, ok := c.GetBytes(key(6), nil); !ok || string(data) != `{"r":1}` {
		t.Fatalf("memory GetBytes = (%q, %v)", data, ok)
	}

	// A fresh cache over the same store: GetBytes serves and promotes
	// the disk entry.
	warm := New("t", 0, nil)
	if err := warm.SetDirFS("cache", mem); err != nil {
		t.Fatal(err)
	}
	if data, ok := warm.GetBytes(key(6), nil); !ok || string(data) != `{"r":1}` {
		t.Fatalf("disk GetBytes = (%q, %v)", data, ok)
	}
	if warm.Len() != 1 {
		t.Errorf("GetBytes did not promote the disk entry (Len=%d)", warm.Len())
	}
	// A failing check treats the entry as absent (and deletes it).
	bad := New("t", 0, nil)
	if err := bad.SetDirFS("cache", mem); err != nil {
		t.Fatal(err)
	}
	if _, ok := bad.GetBytes(key(6), func([]byte) error { return errors.New("no") }); ok {
		t.Fatal("GetBytes served an entry its check rejected")
	}
}

// TestPeek: Peek sees memory entries, sees disk entries (without
// promoting them into memory), and stays silent for absent keys.
func TestPeek(t *testing.T) {
	dir := t.TempDir()
	c := New("t", 0, nil)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if c.Peek(key(1)) {
		t.Error("Peek on an empty cache")
	}
	if _, _, err := c.DoBytes(key(1), nil, computeBytes([]byte("x"), true, nil)); err != nil {
		t.Fatal(err)
	}
	if !c.Peek(key(1)) {
		t.Error("Peek misses a resident entry")
	}

	// A fresh cache over the same directory: the entry is disk-only.
	warm := New("t", 0, nil)
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if !warm.Peek(key(1)) {
		t.Error("Peek misses a disk entry")
	}
	if warm.Len() != 0 {
		t.Errorf("Peek promoted the disk entry (Len=%d)", warm.Len())
	}
	if warm.Peek(key(2)) {
		t.Error("Peek invents an absent key")
	}

	// Memory-only cache: no disk to consult.
	mem := New("m", 0, nil)
	if mem.Peek(key(1)) {
		t.Error("memory-only Peek sees another cache's disk")
	}
}

// Dir returns the on-disk store's directory ("" when memory-only).
func (c *Cache) Dir() string {
	if c.disk == nil {
		return ""
	}
	return c.disk.dir
}
