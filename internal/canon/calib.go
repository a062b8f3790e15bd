package canon

import (
	"repro/internal/fabric"
	"repro/internal/memsys"
)

// AppendFabricCalibration encodes the profile into an ongoing hash.
func AppendFabricCalibration(h *Hasher, c fabric.Calibration) {
	h.Section("fabric-calib")
	h.F64(c.UniEfficiency)
	h.F64(c.SatEfficiency)
	h.F64(c.BiDirFactor)
	h.F64(c.InterGroupRouteCapGBs)
	h.F64(c.ChipInterleavedAbsorbGBs)
}

// AppendMemsysCalibration encodes the constants into an ongoing hash.
func AppendMemsysCalibration(h *Hasher, c memsys.Calibration) {
	h.Section("memsys-calib")
	if c.RWEfficiency == nil {
		h.Bool(false)
	} else {
		h.Bool(true)
		xs, ys := c.RWEfficiency.Points()
		h.F64s(xs)
		h.F64s(ys)
	}
	h.F64(c.PerThreadStreamGBs)
	h.F64(c.CoreStreamCapGBs)
	h.F64(c.RandomBaseLatencyNs)
	h.F64(c.RandomQueueNsPerLine)
	h.F64(c.RandomPeakFraction)
}
