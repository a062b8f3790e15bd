// Package iofault is the filesystem seam under the repository's
// durable state: a small FS interface, the real os-backed
// implementation, an in-memory implementation that models what survives
// a crash (only fsynced bytes), and a deterministic fault injector that
// wraps either one. internal/journal writes its write-ahead log through
// this seam and internal/memo's disk tier reads and writes through it,
// so recovery invariants — "every acknowledged append survives a crash",
// "a torn tail is truncated, never trusted" — are provable in ordinary
// `go test` instead of hoped for in production.
//
// The package is deliberately wall-clock-free and seed-deterministic:
// a fault schedule is written out explicitly (crash at the Nth write),
// so a failing crash-point sweep reproduces from its schedule alone.
package iofault

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the subset of *os.File the journal and the memo disk tier
// need: a handle for writing (both read whole files through
// FS.ReadFile). Write and Sync follow the crash model: bytes written
// are volatile until Sync returns nil.
type File interface {
	io.Writer
	// Sync flushes the file's written bytes to stable storage; only
	// synced bytes survive a Crash in the in-memory model.
	Sync() error
	// Close releases the handle. It does not imply Sync.
	Close() error
	// Name returns the path the file was opened under.
	Name() string
}

// FS is the filesystem surface the durable layers use. All paths are
// plain slash-joined strings; implementations may be backed by the real
// OS, by memory, or by a fault injector wrapping either.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// Create opens path for writing, truncating any existing content.
	Create(path string) (File, error)
	// CreateTemp creates a new unique file in dir; pattern's final "*"
	// is replaced by a unique suffix, exactly like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole content of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically moves oldpath to newpath, replacing newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Stat returns the size of path, or an error satisfying
	// errors.Is(err, fs.ErrNotExist) when it does not exist.
	Stat(path string) (int64, error)
	// SyncDir flushes directory metadata (created, renamed or removed
	// entries) to stable storage.
	SyncDir(dir string) error
}

// OS is the real filesystem. The zero value is ready to use.
type OS struct{}

// MkdirAll creates a directory and any missing parents.
func (OS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// Create opens path for writing, truncating any existing content.
func (OS) Create(path string) (File, error) { return os.Create(path) }

// CreateTemp creates a new unique file in dir.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// ReadFile reads the whole content of path.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Rename atomically moves oldpath to newpath.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove deletes path.
func (OS) Remove(path string) error { return os.Remove(path) }

// ReadDir lists the file names in dir, sorted.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat returns the size of path.
func (OS) Stat(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// SyncDir fsyncs the directory itself, making created/renamed/removed
// entries durable on filesystems that require it (the usual POSIX
// journaling contract).
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// notExist wraps fs.ErrNotExist with the offending path, so
// errors.Is(err, fs.ErrNotExist) works across implementations.
func notExist(path string) error {
	return &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
}

// clean normalizes a path for map keys in the memory implementation.
func clean(path string) string { return filepath.Clean(path) }
