// Command spmvbench benchmarks the paper's two SpMV kernels on a matrix:
// either one of the built-in synthetic suite profiles (Figure 11's
// stand-ins) or a user-supplied Matrix Market file — including the real
// University of Florida matrices the paper used, for anyone who has
// them.
//
// Usage:
//
//	spmvbench -profile "Wind Tunnel"          # built-in synthetic matrix
//	spmvbench -mtx pwtk.mtx                   # a real .mtx file
//	spmvbench -mtx graph.mtx -twoscan -block 4096
//	spmvbench -profile "LiveJournal" -threads 8
//	spmvbench -profile "Wind Tunnel" -stats       # team-scheduling counters
//
// -stats instruments the kernel runtime's worker teams and prints their
// counters after the run (dispatches, per-worker chunks and items, the
// dynamic row chunks' imbalance distribution); see DESIGN.md
// "Observability" for the taxonomy. -statsaddr additionally serves the
// live registry over HTTP for watching a long run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/spmv"
)

func main() {
	var (
		profile = flag.String("profile", "", "built-in suite profile name (see -list)")
		mtxPath = flag.String("mtx", "", "Matrix Market file to load")
		list    = flag.Bool("list", false, "list built-in profiles")
		twoscan = flag.Bool("twoscan", false, "also run the two-scan graph kernel")
		block   = flag.Int("block", 4096, "two-scan stripe size")
		iters   = flag.Int("iters", 5, "timed repetitions")
		threads = flag.Int("threads", 0, "worker threads (0 = all CPUs)")
		seed    = flag.Uint64("seed", 1, "synthesis seed for -profile")
		stats   = flag.Bool("stats", false, "print kernel-runtime scheduling counters after the run")
		addr    = flag.String("statsaddr", "", "serve the live counter registry over HTTP at this address (implies -stats)")
	)
	flag.Parse()

	var reg *obs.Registry
	if *stats || *addr != "" {
		reg = obs.NewRegistry("spmvbench")
		parallel.InstrumentShared(reg)
		if *addr != "" {
			go func() {
				if err := http.ListenAndServe(*addr, reg); err != nil {
					fatal(fmt.Errorf("stats server: %v", err))
				}
			}()
		}
	}

	if *list {
		for _, p := range graph.Suite() {
			fmt.Printf("%-18s %9d rows %12d nnz  (%v)\n", p.Name, p.N, p.NNZ, p.Kind)
		}
		return
	}

	var m *graph.CSR
	var name string
	switch {
	case *mtxPath != "":
		f, err := os.Open(*mtxPath)
		if err != nil {
			fatal(err)
		}
		m, err = graph.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		name = *mtxPath
	case *profile != "":
		found := false
		for _, p := range graph.Suite() {
			if p.Name == *profile {
				m = graph.Generate(p, *seed)
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown profile %q (try -list)", *profile))
		}
		name = *profile
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("%s: %d x %d, %d nonzeros (%.1f per row), %v\n",
		name, m.Rows, m.Cols, m.NNZ(), m.AvgDegree(), m.Bytes())
	rate := spmv.MeasureCSR(m, *threads, *iters)
	fmt.Printf("CSR SpMV:      %v\n", rate)
	if *twoscan {
		ts := spmv.NewTwoScan(m, *block)
		rate2 := spmv.MeasureTwoScan(ts, *threads, *iters)
		fmt.Printf("two-scan SpMV: %v (avg block nnz %.0f)\n", rate2, ts.AvgBlockNNZ())
	}
	if reg != nil {
		fmt.Println("\nkernel-runtime counters:")
		obs.WriteMarkdown(os.Stdout, reg.Snapshot())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmvbench:", err)
	os.Exit(1)
}
