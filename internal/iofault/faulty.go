package iofault

import (
	"errors"
	"fmt"
	"sync"
)

// Op names one class of filesystem operation the injector can target.
type Op uint8

// The injectable operation classes. OpWrite counts individual
// File.Write calls across every file opened through the injector;
// OpSync counts File.Sync calls; the rest count the FS-level calls of
// the same name.
const (
	OpWrite Op = iota
	OpSync
	OpCreate
	OpRename
	OpRemove
	OpRead // ReadFile
	opCount
)

// String names the op for error messages and test labels.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpCreate:
		return "create"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpRead:
		return "read"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind is the failure a Fault injects when its trigger fires.
type Kind uint8

// The injectable failure kinds.
const (
	// KindErr fails the operation with ErrInjected and no side effect
	// (an EIO-shaped error).
	KindErr Kind = iota
	// KindNoSpace fails the operation with ErrNoSpace; on a write, Arg
	// bytes are written before the failure (a short write, the
	// ENOSPC-mid-write shape).
	KindNoSpace
	// KindCrash kills the filesystem at this operation: on a write,
	// Arg bytes of the attempted payload still land (a torn tail);
	// then the wrapped FS crashes (unsynced data is lost when it is a
	// *Mem) and every subsequent operation fails with ErrCrashed.
	KindCrash
)

// String names the kind for test labels.
func (k Kind) String() string {
	switch k {
	case KindErr:
		return "err"
	case KindNoSpace:
		return "nospace"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// A Fault arms one injection: when the N-th operation of class Op
// (0-indexed, counted since the injector was built) executes, fail it
// with Kind. Arg is the kind's parameter (bytes retained by a torn or
// short write).
type Fault struct {
	Op   Op
	N    int
	Kind Kind
	Arg  int
}

// String renders the fault for test names ("write@3:crash/2").
func (f Fault) String() string {
	return fmt.Sprintf("%s@%d:%s/%d", f.Op, f.N, f.Kind, f.Arg)
}

// The injector's sentinel errors. Callers match with errors.Is.
var (
	// ErrInjected is the generic injected I/O failure.
	ErrInjected = errors.New("iofault: injected I/O error")
	// ErrNoSpace is the injected out-of-space failure.
	ErrNoSpace = errors.New("iofault: injected ENOSPC")
	// ErrCrashed fails every operation after an injected crash point:
	// the process this FS belonged to is conceptually dead.
	ErrCrashed = errors.New("iofault: filesystem crashed")
)

// Crasher is implemented by filesystems that can simulate power loss;
// *Mem is the one in this package. A Faulty wrapping a Crasher
// propagates KindCrash into it, so unsynced bytes are lost exactly as
// the durability model prescribes.
type Crasher interface{ Crash() }

// Faulty wraps an FS with a deterministic fault schedule. Operations
// are counted per class; when a count matches an armed Fault, the
// failure is injected. All methods are safe for concurrent use; the
// count order under concurrency is the caller's schedule to control
// (the journal serializes appends, so its sweeps are exact).
type Faulty struct {
	inner  FS
	mu     sync.Mutex
	counts [opCount]int
	faults []Fault
	// crashed latches after a KindCrash fires.
	crashed bool
}

// NewFaulty wraps inner with a fault schedule. The schedule may be
// empty (no-op wrapper) and may arm several faults; each fires at most
// once.
func NewFaulty(inner FS, faults ...Fault) *Faulty {
	f := &Faulty{inner: inner}
	f.faults = append(f.faults, faults...)
	return f
}

// Ops reports how many operations of class op have executed (including
// the one a fault failed). Crash-point sweeps use it to size the sweep.
func (f *Faulty) Ops(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// step counts one operation of class op and returns the fault to
// inject, if any. A latched crash fails everything.
func (f *Faulty) step(op Op) (Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return Fault{}, ErrCrashed
	}
	n := f.counts[op]
	f.counts[op]++
	for i, ft := range f.faults {
		if ft.Op == op && ft.N == n {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
			if ft.Kind == KindCrash {
				f.crashed = true
				if c, ok := f.inner.(Crasher); ok {
					defer c.Crash()
				}
			}
			return ft, errFor(ft.Kind)
		}
	}
	return Fault{}, nil
}

// errFor maps a kind to its sentinel.
func errFor(k Kind) error {
	switch k {
	case KindNoSpace:
		return ErrNoSpace
	case KindCrash:
		return ErrCrashed
	}
	return ErrInjected
}

// MkdirAll passes through uninjected (directory creation is setup, not
// a durability edge), but still honors a latched crash.
func (f *Faulty) MkdirAll(path string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.inner.MkdirAll(path)
}

// Create opens path for writing through the injector.
func (f *Faulty) Create(path string) (File, error) {
	if _, err := f.step(OpCreate); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: file}, nil
}

// CreateTemp creates a unique file in dir through the injector.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.step(OpCreate); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: file}, nil
}

// ReadFile reads path through the injector.
func (f *Faulty) ReadFile(path string) ([]byte, error) {
	if _, err := f.step(OpRead); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// Rename moves oldpath to newpath through the injector.
func (f *Faulty) Rename(oldpath, newpath string) error {
	if _, err := f.step(OpRename); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove deletes path through the injector.
func (f *Faulty) Remove(path string) error {
	if _, err := f.step(OpRemove); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// ReadDir lists dir; uninjected (listing is recovery setup; the
// injectable read path is the per-file content reads).
func (f *Faulty) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(dir)
}

// Stat sizes path; uninjected apart from a latched crash.
func (f *Faulty) Stat(path string) (int64, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return f.inner.Stat(path)
}

// SyncDir flushes directory metadata through the injector's sync
// counter.
func (f *Faulty) SyncDir(dir string) error {
	if _, err := f.step(OpSync); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultyFile threads a file's writes and syncs through the injector.
type faultyFile struct {
	fs    *Faulty
	inner File
}

// Write counts one OpWrite. An injected short write (KindNoSpace with
// Arg < len(p)) or torn tail (KindCrash) lands Arg bytes in the
// wrapped file before failing, so recovery code sees exactly the
// partial frame a real power cut leaves.
func (ff *faultyFile) Write(p []byte) (int, error) {
	ft, err := ff.fs.step(OpWrite)
	if err != nil {
		n := 0
		if keep := ft.Arg; keep > 0 && (ft.Kind == KindNoSpace || ft.Kind == KindCrash) {
			if keep > len(p) {
				keep = len(p)
			}
			n, _ = ff.inner.Write(p[:keep])
		}
		return n, err
	}
	return ff.inner.Write(p)
}

// Sync counts one OpSync and passes through.
func (ff *faultyFile) Sync() error {
	if _, err := ff.fs.step(OpSync); err != nil {
		return err
	}
	return ff.inner.Sync()
}

// Close passes through uninjected apart from a latched crash.
func (ff *faultyFile) Close() error {
	ff.fs.mu.Lock()
	crashed := ff.fs.crashed
	ff.fs.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return ff.inner.Close()
}

// Name returns the wrapped handle's path.
func (ff *faultyFile) Name() string { return ff.inner.Name() }
