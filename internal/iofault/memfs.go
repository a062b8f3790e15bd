package iofault

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Mem is an in-memory FS that models crash durability: every file
// tracks its written content and its synced content separately, and
// Crash discards everything that was never acknowledged by Sync. The
// model is deliberately pessimistic about data and optimistic about
// metadata — after a crash a file keeps only its last synced byte
// prefix, while renames and removes that already happened stick (the
// common mental model of a metadata-journaling filesystem). A file that
// was created but never synced at all does not survive.
//
// Mem is safe for concurrent use and the zero value is not ready;
// construct with NewMem.
type Mem struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	tempSeq int
}

// memFile is one file's content: data is what readers see now, synced
// is what survives a Crash.
type memFile struct {
	data   []byte
	synced []byte
	// everSynced marks at least one successful Sync; files that were
	// never synced do not survive a crash at all.
	everSynced bool
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: map[string]*memFile{}, dirs: map[string]bool{"/": true, ".": true}}
}

// Crash simulates power loss: every file's content reverts to its last
// synced prefix, and files never synced disappear. Open handles keep
// working (the process that held them is conceptually dead; tests open
// fresh ones), and the filesystem remains usable for the "restarted"
// process.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Collect-then-sort: the revert must not leak map iteration order
	// into anything downstream (deterministic replay is the whole point
	// of this filesystem).
	paths := make([]string, 0, len(m.files))
	for path := range m.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f := m.files[path]
		if !f.everSynced {
			delete(m.files, path)
			continue
		}
		f.data = append([]byte(nil), f.synced...)
	}
}

// MkdirAll creates a directory and any missing parents.
func (m *Mem) MkdirAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := clean(path)
	for p != "." && p != "/" {
		m.dirs[p] = true
		p = filepath.Dir(p)
	}
	return nil
}

// Create opens path for writing, truncating any existing content.
func (m *Mem) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = clean(path)
	f := &memFile{}
	m.files[path] = f
	return &memHandle{fs: m, name: path, f: f}, nil
}

// CreateTemp creates a unique file in dir; the unique suffix is a
// deterministic per-FS counter, so two runs of the same test see the
// same names.
func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tempSeq++
	name := fmt.Sprintf("%s%08d", pattern, m.tempSeq)
	if i := strings.IndexByte(pattern, '*'); i >= 0 {
		name = fmt.Sprintf("%s%08d%s", pattern[:i], m.tempSeq, pattern[i+1:])
	}
	path := clean(filepath.Join(dir, name))
	f := &memFile{}
	m.files[path] = f
	return &memHandle{fs: m, name: path, f: f}, nil
}

// ReadFile reads the whole content of path.
func (m *Mem) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(path)]
	if !ok {
		return nil, notExist(path)
	}
	return append([]byte(nil), f.data...), nil
}

// Rename atomically moves oldpath to newpath, replacing newpath.
func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = clean(oldpath), clean(newpath)
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

// Remove deletes path.
func (m *Mem) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = clean(path)
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

// ReadDir lists the file names directly inside dir, sorted.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = clean(dir)
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat returns the size of path.
func (m *Mem) Stat(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(path)]
	if !ok {
		return 0, notExist(path)
	}
	return int64(len(f.data)), nil
}

// SyncDir is a no-op in the memory model: metadata operations stick
// (see the type comment for the crash model).
func (m *Mem) SyncDir(dir string) error { return nil }

// memHandle is an open file on a Mem.
type memHandle struct {
	fs     *Mem
	name   string
	f      *memFile
	closed bool
}

// Write appends to the file's volatile content.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrInvalid}
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync acknowledges every written byte as durable.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return &fs.PathError{Op: "sync", Path: h.name, Err: fs.ErrInvalid}
	}
	h.f.synced = append([]byte(nil), h.f.data...)
	h.f.everSynced = true
	return nil
}

// Close marks the handle unusable. It does not sync.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return &fs.PathError{Op: "close", Path: h.name, Err: fs.ErrClosed}
	}
	h.closed = true
	return nil
}

// Name returns the path the file was opened under.
func (h *memHandle) Name() string { return h.name }
