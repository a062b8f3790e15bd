package iofault

import (
	"errors"
	"io/fs"
	"testing"
)

// TestMemCrashKeepsOnlySyncedBytes pins the durability model: written
// bytes are volatile until Sync; Crash reverts to the synced prefix;
// files never synced disappear.
func TestMemCrashKeepsOnlySyncedBytes(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	g, err := m.Create("d/never-synced")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("gone")); err != nil {
		t.Fatal(err)
	}

	// Before the crash, readers see everything written.
	data, err := m.ReadFile("d/a")
	if err != nil || string(data) != "durable-volatile" {
		t.Fatalf("pre-crash read: %q, %v", data, err)
	}

	m.Crash()

	data, err = m.ReadFile("d/a")
	if err != nil || string(data) != "durable" {
		t.Fatalf("post-crash read: %q, %v; want synced prefix only", data, err)
	}
	if _, err := m.ReadFile("d/never-synced"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("never-synced file survived the crash: %v", err)
	}
}

// TestMemRenameRemoveReadDir drives the metadata surface.
func TestMemRenameRemoveReadDir(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("dir/x")
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("dir/x", "dir/y"); err != nil {
		t.Fatal(err)
	}
	names, err := m.ReadDir("dir")
	if err != nil || len(names) != 1 || names[0] != "y" {
		t.Fatalf("ReadDir after rename: %v, %v", names, err)
	}
	if size, err := m.Stat("dir/y"); err != nil || size != 1 {
		t.Fatalf("Stat: %d, %v", size, err)
	}
	if err := m.Remove("dir/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("dir/y"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat after remove: %v", err)
	}
	// ReadFile reads a snapshot: written bytes show before any Sync,
	// and a later write leaves an earlier read untouched.
	h, _ := m.Create("dir/z")
	if _, err := h.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("dir/z")
	if err != nil || string(got) != "abc" {
		t.Fatalf("snapshot read: %q, %v", got, err)
	}
	if _, err := h.Write([]byte("d")); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("snapshot changed after a later write: %q", got)
	}
}

// TestMemCreateTempDeterministic pins that temp names are a per-FS
// counter, so two identical runs see identical names.
func TestMemCreateTempDeterministic(t *testing.T) {
	a, b := NewMem(), NewMem()
	fa, _ := a.CreateTemp("d", "tmp-*")
	fb, _ := b.CreateTemp("d", "tmp-*")
	if fa.Name() != fb.Name() {
		t.Fatalf("temp names diverge: %q vs %q", fa.Name(), fb.Name())
	}
}

// TestFaultyShortWrite pins the ENOSPC-mid-write shape: Arg bytes land,
// the error is ErrNoSpace, and the next write goes through untouched.
func TestFaultyShortWrite(t *testing.T) {
	mem := NewMem()
	ffs := NewFaulty(mem, Fault{Op: OpWrite, N: 0, Kind: KindNoSpace, Arg: 3})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("hello"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if n != 3 {
		t.Fatalf("short write landed %d bytes, want 3", n)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatalf("second write should pass: %v", err)
	}
	data, _ := mem.ReadFile("a")
	if string(data) != "helworld" {
		t.Fatalf("content %q, want %q", data, "helworld")
	}
}

// TestFaultyCrashLatch pins crash semantics: the torn tail lands, the
// filesystem latches, and unsynced data from before the crash is gone.
func TestFaultyCrashLatch(t *testing.T) {
	mem := NewMem()
	ffs := NewFaulty(mem, Fault{Op: OpWrite, N: 2, Kind: KindCrash, Arg: 2})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("AA")); err != nil { // write 0
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("BB")); err != nil { // write 1: volatile
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("CCC")); err == nil { // write 2: crash, torn to 2 bytes
		t.Fatal("crash write should fail")
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() should latch")
	}
	// Everything after the crash fails.
	if _, err := ffs.Create("b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create: %v", err)
	}
	if _, err := ffs.ReadFile("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	// The "restarted process" reads the raw Mem: the synced prefix
	// survived, the unsynced middle did not, the torn tail did.
	data, err := mem.ReadFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "AACC" {
		t.Fatalf("post-crash content %q, want %q (synced prefix + torn tail)", data, "AACC")
	}
}

// TestFaultySyncError pins an injected fsync failure.
func TestFaultySyncError(t *testing.T) {
	ffs := NewFaulty(NewMem(), Fault{Op: OpSync, N: 0, Kind: KindErr})
	f, err := ffs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected from sync, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync should pass: %v", err)
	}
}

// TestOSRoundTrip drives the real-OS implementation through a temp dir:
// the seam has to behave identically over both backends.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var osfs OS
	if err := osfs.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	f, err := osfs.Create(dir + "/sub/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("content")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tmp, err := osfs.CreateTemp(dir+"/sub", "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := osfs.Rename(tmp.Name(), dir+"/sub/renamed"); err != nil {
		t.Fatal(err)
	}
	names, err := osfs.ReadDir(dir + "/sub")
	if err != nil || len(names) != 2 {
		t.Fatalf("ReadDir: %v, %v", names, err)
	}
	if data, err := osfs.ReadFile(dir + "/sub/file"); err != nil || string(data) != "content" {
		t.Fatalf("ReadFile: %q, %v", data, err)
	}
	if size, err := osfs.Stat(dir + "/sub/renamed"); err != nil || size != 1 {
		t.Fatalf("Stat: %d, %v", size, err)
	}
	if err := osfs.SyncDir(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	if err := osfs.Remove(dir + "/sub/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := osfs.Stat(dir + "/sub/renamed"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat after remove: %v", err)
	}
}

// Crashed reports whether an armed crash point has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}
