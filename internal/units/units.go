// Package units provides typed quantities and formatting helpers used
// throughout the POWER8 machine model: byte sizes, bandwidths, times and
// rates. Keeping these as distinct types catches unit mix-ups (GB vs GiB,
// GB/s vs ns) at compile time in the model code.
package units

import "fmt"

// Bytes is a memory size in bytes.
type Bytes int64

// Common byte quantities. Cache and page sizes in the POWER8 documentation
// are binary units; memory bandwidth uses decimal GB.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40

	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// String formats a size with a binary suffix, choosing the largest suffix
// that yields a value >= 1.
func (b Bytes) String() string {
	switch {
	case b >= TiB && b%TiB == 0:
		return fmt.Sprintf("%d TiB", b/TiB)
	case b >= GiB:
		return fmtScaled(float64(b)/float64(GiB), "GiB")
	case b >= MiB:
		return fmtScaled(float64(b)/float64(MiB), "MiB")
	case b >= KiB:
		return fmtScaled(float64(b)/float64(KiB), "KiB")
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

func fmtScaled(v float64, suffix string) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d %s", int64(v), suffix)
	}
	return fmt.Sprintf("%.2f %s", v, suffix)
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// GBps constructs a Bandwidth from decimal GB/s, the unit used in the paper.
func GBps(v float64) Bandwidth { return Bandwidth(v * 1e9) }

// GBps reports the bandwidth in decimal GB/s.
func (bw Bandwidth) GBps() float64 { return float64(bw) / 1e9 }

// String formats the bandwidth in GB/s with one decimal.
func (bw Bandwidth) String() string { return fmt.Sprintf("%.1f GB/s", bw.GBps()) }

// Duration is simulated time in nanoseconds, stored as a float to allow
// sub-nanosecond cycle arithmetic at multi-GHz clocks.
type Duration float64

// String formats a duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= 1e9:
		return fmt.Sprintf("%.3f s", float64(d)/1e9)
	case d >= 1e6:
		return fmt.Sprintf("%.3f ms", float64(d)/1e6)
	case d >= 1e3:
		return fmt.Sprintf("%.3f us", float64(d)/1e3)
	default:
		return fmt.Sprintf("%.2f ns", float64(d))
	}
}

// Rate is a compute throughput in FLOP/s.
type Rate float64

// BandwidthOf returns the memory bandwidth that gives a system with peak
// compute r the stated machine balance (FLOPs per byte).
func BandwidthOf(r Rate, balance float64) Bandwidth {
	return Bandwidth(float64(r) / balance)
}

// GFs reports the rate in GFLOP/s.
func (r Rate) GFs() float64 { return float64(r) / 1e9 }

// String formats the rate in GFLOP/s.
func (r Rate) String() string { return fmt.Sprintf("%.1f GFLOP/s", r.GFs()) }
