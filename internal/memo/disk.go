package memo

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/canon"
	"repro/internal/iofault"
)

// Disk-tier hardening knobs. Writes that fail are retried a bounded
// number of times with a deterministic (attempt-proportional, never
// randomized) backoff: transient conditions — another process holding
// the directory, a briefly full disk — get a second chance, while a
// persistently broken disk costs a bounded, predictable amount of time
// before the cache degrades to memory-only behavior for that entry.
const (
	diskWriteAttempts = 3
	diskWriteBackoff  = 2 * time.Millisecond
)

// diskStore is a content-addressed directory of results: each entry is
// a file named by the full hex fingerprint, written atomically
// (temp-then-rename) so a crashed or concurrent writer can never leave
// a half-written entry under a final name. Two processes (or two
// caches) sharing a directory race only on renames of identical
// content — keys are content addresses — so the last rename winning is
// harmless. All I/O goes through an iofault.FS seam, so fault-injection
// tests can drive every error path deterministically.
type diskStore struct {
	dir   string
	fsys  iofault.FS
	sleep func(time.Duration)
}

// SetDir enables the on-disk store under dir on the real filesystem,
// creating it if needed. Only byte-valued entries (DoBytes) touch the
// disk; opaque in-memory values (Do) stay memory-only.
func (c *Cache) SetDir(dir string) error {
	return c.SetDirFS(dir, iofault.OS{})
}

// SetDirFS is SetDir over an explicit filesystem seam. Production code
// uses SetDir; tests substitute an iofault.Mem or iofault.Faulty to
// exercise crash and error paths without touching the real disk.
func (c *Cache) SetDirFS(dir string, fsys iofault.FS) error {
	if dir == "" {
		return fmt.Errorf("memo: empty cache directory")
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("memo: cache directory: %w", err)
	}
	c.disk = &diskStore{dir: dir, fsys: fsys, sleep: time.Sleep} //p8:allow determinism: retry backoff pacing is harness I/O hygiene, never simulated state; tests inject their own sleep
	return nil
}

// Peek reports whether a result for key is already resident — in the
// memory LRU, or (when the on-disk store is enabled) as a disk entry.
// It is purely advisory: it promotes nothing, validates nothing,
// charges no stats, and the answer can be stale by the time the caller
// acts on it (a concurrent Do may insert or evict the key at any
// moment). p8d uses it to annotate freshly admitted jobs with a
// warm/cold hint without perturbing the cache.
func (c *Cache) Peek(key canon.Fingerprint) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	if c.disk == nil {
		return false
	}
	_, err := c.disk.fsys.Stat(c.disk.path(key))
	return err == nil
}

// DoBytes is Do for serialized results, with the on-disk store in the
// lookup path: memory LRU, then disk (when enabled), then compute. A
// disk hit is promoted into the memory LRU; a computed storable result
// is written back to disk. The disk is best-effort — read and write
// failures count in the stats and fall through to compute.
//
// check, when non-nil, validates bytes read from disk before they are
// trusted: a corrupted or truncated entry (the store is plain files;
// anything can happen to them) counts as a disk error, is deleted so
// it cannot shadow the recomputation forever, and falls through to
// compute. In-memory and just-computed bytes are not re-checked — the
// process that produced them validated them by construction.
func (c *Cache) DoBytes(key canon.Fingerprint, check func([]byte) error, compute func() ([]byte, bool, error)) ([]byte, bool, error) {
	v, hit, err := c.Do(key, func() (Result, error) {
		if data, ok := c.diskRead(key, check); ok {
			return Result{V: data, Cost: int64(len(data)), Store: true}, nil
		}
		data, store, err := compute()
		if err != nil {
			return Result{}, err
		}
		if store {
			c.diskWrite(key, data)
		}
		return Result{V: data, Cost: int64(len(data)), Store: store}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.([]byte), hit, nil
}

// GetBytes fetches the bytes for key if they are already resident in
// the memory LRU or the on-disk store, without ever computing. A disk
// hit is promoted into the LRU exactly as DoBytes would promote it.
// The boolean is false when the key is simply absent; recovery uses
// GetBytes to re-serve reports for journal-replayed jobs and treats
// absence as "evicted since the previous run". GetBytes deliberately
// skips the singleflight: it never computes, so a duplicate concurrent
// disk read is harmless, and probing must not inject a "not found"
// error into a real compute's flight.
func (c *Cache) GetBytes(key canon.Fingerprint, check func([]byte) error) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		c.mu.Unlock()
		c.scope.Counter("hits").Inc()
		b, isBytes := e.val.([]byte)
		return b, isBytes
	}
	c.mu.Unlock()
	if data, ok := c.diskRead(key, check); ok {
		c.insert(key, data, int64(len(data)))
		return data, true
	}
	return nil, false
}

// path returns the final file name of a key.
func (d *diskStore) path(key canon.Fingerprint) string {
	return d.dir + "/" + key.String()
}

// diskRead fetches an entry from the store; ok is false when the store
// is disabled, the entry is absent, the read fails, or check rejects
// the content (in which case the entry is removed and counted under
// disk/corrupt_deleted).
func (c *Cache) diskRead(key canon.Fingerprint, check func([]byte) error) (data []byte, ok bool) {
	if c.disk == nil {
		return nil, false
	}
	start := time.Now() //p8:allow determinism: disk I/O timing is harness instrumentation, never simulated state
	data, err := c.disk.fsys.ReadFile(c.disk.path(key))
	c.scope.Distribution("disk_read_ns").Observe(time.Since(start).Nanoseconds()) //p8:allow determinism: disk I/O timing is harness instrumentation, never simulated state
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.scope.Counter("disk_errors").Inc()
		}
		return nil, false
	}
	if check != nil {
		if err := check(data); err != nil {
			c.scope.Counter("disk_errors").Inc()
			c.scope.Child("disk").Counter("corrupt_deleted").Inc()
			if rerr := c.disk.fsys.Remove(c.disk.path(key)); rerr != nil {
				c.scope.Counter("disk_errors").Inc()
			}
			return nil, false
		}
	}
	c.scope.Counter("disk_hits").Inc()
	return data, true
}

// diskWrite stores an entry with bounded retries. Each failed attempt
// counts under disk/write_errors; each retry under disk/retries; a
// write that exhausts its attempts is abandoned (the cache serves the
// entry from memory and recomputes it in a future process).
func (c *Cache) diskWrite(key canon.Fingerprint, data []byte) {
	if c.disk == nil {
		return
	}
	disk := c.scope.Child("disk")
	start := time.Now() //p8:allow determinism: disk I/O timing is harness instrumentation, never simulated state
	var err error
	for attempt := 0; attempt < diskWriteAttempts; attempt++ {
		if attempt > 0 {
			disk.Counter("retries").Inc()
			c.disk.sleep(time.Duration(attempt) * diskWriteBackoff)
		}
		if err = c.disk.write(key, data); err == nil {
			break
		}
		disk.Counter("write_errors").Inc()
	}
	c.scope.Distribution("disk_write_ns").Observe(time.Since(start).Nanoseconds()) //p8:allow determinism: disk I/O timing is harness instrumentation, never simulated state
	if err != nil {
		c.scope.Counter("disk_errors").Inc()
		return
	}
	c.scope.Counter("disk_writes").Inc()
}

// write stores an entry atomically: write a private temp file in the
// same directory, then rename it over the final fingerprint name.
func (d *diskStore) write(key canon.Fingerprint, data []byte) error {
	tmp, err := d.fsys.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		d.discard(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		d.discard(name)
		return err
	}
	if err := d.fsys.Rename(name, d.path(key)); err != nil {
		d.discard(name)
		return err
	}
	return nil
}

// discard best-effort-removes a temp file an aborted write left behind;
// a leftover temp is cosmetic (never matches a fingerprint name), so
// the removal error is deliberately dropped.
func (d *diskStore) discard(name string) {
	_ = d.fsys.Remove(name)
}
