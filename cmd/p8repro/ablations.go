package main

import (
	"fmt"
	"io"

	"repro/internal/ablation"
	"repro/internal/arch"
	"repro/internal/machine"
)

// printAblations runs the design-choice studies of internal/ablation and
// prints each feature's measured worth.
func printAblations(w io.Writer) {
	m := machine.New(arch.E870())

	fmt.Fprintln(w, "=== Ablation studies: what each POWER8 design choice is worth ===")

	v := ablation.VictimL3(m)
	fmt.Fprintf(w, "\nNUCA victim L3 (Section II-A)\n")
	fmt.Fprintf(w, "  32 MiB chase: %.1f ns with lateral castout, %.1f ns without (%.2fx)\n",
		v.With, v.Without, v.Factor())

	r := ablation.InterGroupRouting(arch.E870())
	fmt.Fprintf(w, "\nMulti-route inter-group fabric (Section III-B)\n")
	fmt.Fprintf(w, "  chip0->chip5: %.1f GB/s multi-route, %.1f GB/s direct-only (%.2fx)\n",
		r.With, r.Without, r.With/r.Without)
	fmt.Fprintln(w, "  without it, inter-group bandwidth would fall below intra-group,")
	fmt.Fprintln(w, "  inverting the paper's counter-intuitive Table IV finding")

	a := ablation.AsymmetricLinks()
	fmt.Fprintf(w, "\nAsymmetric 2:1 Centaur links (Section II-A)\n")
	fmt.Fprintf(w, "  at 2:1 traffic: %.0f GB/s vs %.0f symmetric (%.2fx better)\n",
		a.At2to1.With, a.At2to1.Without, a.At2to1.With/a.At2to1.Without)
	fmt.Fprintf(w, "  at 1:1 traffic: %.0f GB/s vs %.0f symmetric (%.2fx worse)\n",
		a.At1to1.With, a.At1to1.Without, a.At1to1.Without/a.At1to1.With)

	fmt.Fprintf(w, "\nTwo-level VSX register file (Section III-C, 12 FMAs x 8 threads)\n")
	for _, row := range ablation.RegisterFile() {
		fmt.Fprintf(w, "  %3.0f architected registers: %5.1f%% of peak\n", row.Without, 100*row.With)
	}

	d := ablation.DCBTVersusFasterDetector(m)
	fmt.Fprintf(w, "\nDCBT stream declarations vs detector speed (Section III-D, 1 KiB blocks)\n")
	fmt.Fprintf(w, "  3-access detector: %6.2f GB/s/thread\n", d.NormalDetector.GBps())
	fmt.Fprintf(w, "  1-access detector: %6.2f GB/s/thread\n", d.FastDetector.GBps())
	fmt.Fprintf(w, "  DCBT hints:        %6.2f GB/s/thread\n", d.DCBT.GBps())

	fmt.Fprintf(w, "\nSMP group scaling (extension beyond the paper's 2-group point)\n")
	fmt.Fprintf(w, "  %7s %6s %14s %14s %14s %12s\n", "groups", "chips", "all-to-all", "X aggregate", "A aggregate", "worst lat")
	for _, row := range ablation.GroupScaling() {
		fmt.Fprintf(w, "  %7d %6d %10.0f GB/s %10.0f GB/s %10.0f GB/s %9.0f ns\n",
			row.Groups, row.Chips, row.AllToAll.GBps(), row.XAggregate.GBps(),
			row.AAggregate.GBps(), row.WorstLatencyNs)
	}

	h := ablation.MaxSMP()
	fmt.Fprintf(w, "\nMaximum 192-way SMP projection (Section II-B)\n")
	fmt.Fprintf(w, "  peak DP %v, 2:1 stream %v, random saturation %v, balance %.2f\n",
		h.PeakDP, h.Stream2to1, h.RandomSat, h.Balance)
}
