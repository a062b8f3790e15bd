package canon_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/canon"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/memsys"
)

// Golden vectors: the canonical encodings are a persistence format (the
// on-disk cache is keyed by them), so the fingerprints of fixed inputs
// are frozen here as hex. A mismatch means the encoding changed — which
// is allowed only together with a domain-tag version bump (see the
// package comment), and then these vectors are regenerated.
const (
	goldenPrimitives   = "31e5f50a3b1a4d53442a7d4177653d443e912e9358ad99460098b55198daa072"
	goldenE870Spec     = "f3a6be1d7ff537ea4a4a4a51437eb3bddf5a4eaf329e577c6fb239308b72473e"
	goldenFabricCalib  = "eb889d92f745bfff8641b8974fc809f92908b00e1ca13b3a6b3d2f2438d001e0"
	goldenMemsysCalib  = "433a101492a6bce11d8e69664d899467689cb7c7ccdbd73d86e4e759867be91d"
	goldenE870Machine  = "36f92b71319989d51d09f988bb368881f47a0a7687b7c9d0474a4a392121e6fe"
	goldenMachineInput = "3700615a18031c1d9ce2fa5443a19b10f5445dc17d59c3a50f0c0245dcae372e"
)

// TestPrimitivesGolden freezes the byte-level encoding of every Hasher
// primitive: tag, ints, floats, bools, strings, slices, sections and
// folded fingerprints.
func TestPrimitivesGolden(t *testing.T) {
	h := canon.NewHasher("canon/test/v1")
	h.U64(42)
	h.I64(-1)
	h.Int(7)
	h.F64(3.5)
	h.Bool(true)
	h.Bool(false)
	h.Str("power8")
	h.Str("\xde\xad") // a length-prefixed byte string
	h.F64s([]float64{1, 2.5})
	h.Section("sub")
	h.Fp(canon.Fingerprint{1, 2, 3})
	if got := h.Sum().String(); got != goldenPrimitives {
		t.Errorf("primitive encoding drifted:\n got  %s\n want %s", got, goldenPrimitives)
	}
}

// TestE870Golden freezes the fingerprints of the paper system's fixed
// inputs. These must be stable across processes, runs and architectures
// — they are the cross-process half of the warm-run contract.
func TestE870Golden(t *testing.T) {
	spec := arch.E870()
	fc := fabric.E870Calibration()
	mc := memsys.E870Calibration()
	for _, tc := range []struct {
		name string
		got  canon.Fingerprint
		want string
	}{
		{"spec", specFP(spec), goldenE870Spec},
		{"fabric-calib", fabricCalibFP(fc), goldenFabricCalib},
		{"memsys-calib", memsysCalibFP(mc), goldenMemsysCalib},
		{"machine", canon.Machine(machine.New(spec)), goldenE870Machine},
		{"machine-inputs", machineInputsFP(spec, fc, mc), goldenMachineInput},
	} {
		if got := tc.got.String(); got != tc.want {
			t.Errorf("%s fingerprint drifted:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestStability recomputes each fingerprint from a fresh input graph:
// equal logical inputs must hash equal however they were built.
func TestStability(t *testing.T) {
	if specFP(arch.E870()) != specFP(arch.E870()) {
		t.Error("two E870 specs fingerprint differently")
	}
	if canon.Machine(machine.New(arch.E870())) != canon.Machine(machine.New(arch.E870())) {
		t.Error("two freshly built E870 machines fingerprint differently")
	}
}

// TestSensitivity flips individual fields and demands the fingerprint
// moves: a canonical encoding that ignores a model-relevant field would
// serve wrong cached results.
func TestSensitivity(t *testing.T) {
	base := specFP(arch.E870())

	s := arch.E870()
	s.Name = "E870'"
	if specFP(s) == base {
		t.Error("spec name change did not move the fingerprint")
	}

	s = arch.E870()
	s.Chip.ClockGHz += 0.001
	if specFP(s) == base {
		t.Error("clock change did not move the fingerprint")
	}

	s = arch.E870()
	s.Latency.LocalDRAMNs += 1
	if specFP(s) == base {
		t.Error("latency change did not move the fingerprint")
	}

	fc := fabric.E870Calibration()
	fcBase := fabricCalibFP(fc)
	fc.UniEfficiency *= 0.999
	if fabricCalibFP(fc) == fcBase {
		t.Error("fabric calibration change did not move the fingerprint")
	}

	mc := memsys.E870Calibration()
	mcBase := memsysCalibFP(mc)
	mc.PerThreadStreamGBs += 0.1
	if memsysCalibFP(mc) == mcBase {
		t.Error("memsys calibration change did not move the fingerprint")
	}
}

// TestDomainSeparation checks the two anti-collision mechanisms: the
// domain tag (same payload under different tags hashes apart) and
// length prefixes (adjacent strings cannot shift bytes into each
// other).
func TestDomainSeparation(t *testing.T) {
	a := canon.NewHasher("canon/a/v1")
	b := canon.NewHasher("canon/b/v1")
	a.U64(1)
	b.U64(1)
	if a.Sum() == b.Sum() {
		t.Error("different domain tags produced equal fingerprints")
	}

	x := canon.NewHasher("canon/t/v1")
	x.Str("ab")
	x.Str("c")
	y := canon.NewHasher("canon/t/v1")
	y.Str("a")
	y.Str("bc")
	if x.Sum() == y.Sum() {
		t.Error("string boundaries are not part of the encoding")
	}
}

func TestFingerprintStrings(t *testing.T) {
	f := canon.Fingerprint{0xab, 0xcd, 0xef, 0x01, 0x23}
	if got := f.Short(); got != "abcdef01" {
		t.Errorf("Short() = %q, want abcdef01", got)
	}
	if got := f.String(); len(got) != 64 || got[:10] != "abcdef0123" {
		t.Errorf("String() = %q, want 64 hex digits starting abcdef0123", got)
	}
}

// The fingerprints below hash one component each, under the domain tags
// the goldens were frozen with, so each appender's encoding is pinned on
// its own as well as inside canon.Machine.

// specFP fingerprints a complete system description.
func specFP(s *arch.SystemSpec) canon.Fingerprint {
	h := canon.NewHasher("canon/spec/v1")
	canon.AppendSpec(h, s)
	return h.Sum()
}

// fabricCalibFP fingerprints the fabric efficiency profile.
func fabricCalibFP(c fabric.Calibration) canon.Fingerprint {
	h := canon.NewHasher("canon/fabric-calib/v1")
	canon.AppendFabricCalibration(h, c)
	return h.Sum()
}

// memsysCalibFP fingerprints the memory-model constants, including the
// read:write efficiency curve's breakpoints.
func memsysCalibFP(c memsys.Calibration) canon.Fingerprint {
	h := canon.NewHasher("canon/memsys-calib/v1")
	canon.AppendMemsysCalibration(h, c)
	return h.Sum()
}

// machineInputsFP fingerprints the constructor inputs of a healthy
// machine without building it.
func machineInputsFP(spec *arch.SystemSpec, fc fabric.Calibration, mc memsys.Calibration) canon.Fingerprint {
	h := canon.NewHasher("canon/machine-inputs/v1")
	canon.AppendSpec(h, spec)
	canon.AppendFabricCalibration(h, fc)
	canon.AppendMemsysCalibration(h, mc)
	return h.Sum()
}
