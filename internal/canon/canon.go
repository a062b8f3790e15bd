// Package canon computes canonical fingerprints of the simulator's
// inputs: machine specifications, calibration profiles, fault plans and
// experiment request parameters. A fingerprint is a SHA-256 digest of a
// deterministic binary encoding — fixed field order, fixed-width
// big-endian integers, IEEE-754 bit patterns for floats, length-prefixed
// strings, and never a Go map iteration — so the same logical input
// hashes identically in every process, on every run, on every
// architecture. Fingerprints are the keys of the internal/memo result
// cache: because every engine in this repository is deterministic by
// contract (see the p8lint determinism analyzer), a result is a pure
// function of its fingerprinted inputs, and equal fingerprints mean a
// recomputation can be skipped entirely.
//
// Encodings are versioned: every top-level fingerprint starts with a
// domain tag like "canon/spec/v1". Changing what an encoder writes
// requires bumping its tag, which invalidates every previously stored
// result — the cache's only invalidation story, by design.
//
// The package deliberately lives below internal/fault in the import
// order: it may hash the leaf data types (arch, fabric, memsys,
// machine), while fault fingerprints its own Plan type using the Hasher
// defined here.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Fingerprint is a 32-byte content address: the SHA-256 of a canonical
// encoding.
type Fingerprint [32]byte

// String returns the full lowercase hex form.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first eight hex digits, for logs and labels.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:4]) }

// Hasher accumulates a canonical encoding into a SHA-256 state.
// Construct with NewHasher, which stamps the domain tag first so
// fingerprints of different input kinds can never collide by field
// coincidence.
type Hasher struct {
	d       hash.Hash
	scratch [8]byte
}

// NewHasher starts a canonical encoding under a domain tag (e.g.
// "canon/spec/v1"). The tag is written length-prefixed like any string.
func NewHasher(tag string) *Hasher {
	h := &Hasher{d: sha256.New()}
	h.Str(tag)
	return h
}

// U64 writes a fixed-width big-endian uint64.
func (h *Hasher) U64(v uint64) {
	binary.BigEndian.PutUint64(h.scratch[:], v)
	h.d.Write(h.scratch[:])
}

// I64 writes a signed integer as its two's-complement bit pattern.
func (h *Hasher) I64(v int64) { h.U64(uint64(v)) }

// Int writes a platform int canonically (as int64).
func (h *Hasher) Int(v int) { h.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern. Canonical inputs
// contain no NaNs or negative zeros; should one sneak in it still
// hashes stably, it just will not equal its normalized counterpart.
func (h *Hasher) F64(v float64) { h.U64(math.Float64bits(v)) }

// Bool writes a boolean as one byte.
func (h *Hasher) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	h.scratch[0] = b
	h.d.Write(h.scratch[:1])
}

// Str writes a length-prefixed string, making the encoding prefix-free:
// consecutive strings cannot shift into one another.
func (h *Hasher) Str(s string) {
	h.U64(uint64(len(s)))
	h.d.Write([]byte(s))
}

// F64s writes a length-prefixed slice of floats.
func (h *Hasher) F64s(vs []float64) {
	h.U64(uint64(len(vs)))
	for _, v := range vs {
		h.F64(v)
	}
}

// Section marks the start of a named sub-structure. It is encoded like
// a string; the name makes the encoding self-describing enough that two
// adjacent structs with coincidentally identical field lists cannot
// collide when one grows a field before the other.
func (h *Hasher) Section(name string) { h.Str(name) }

// Fp folds an already-computed fingerprint into the stream — the idiom
// for composite keys (a request fingerprints the machine fingerprint,
// not the machine again).
func (h *Hasher) Fp(f Fingerprint) { h.d.Write(f[:]) }

// Sum finishes the encoding and returns the fingerprint. The hasher
// must not be written to after Sum.
func (h *Hasher) Sum() Fingerprint {
	var out Fingerprint
	copy(out[:], h.d.Sum(nil))
	return out
}
