// Command nasbench regenerates the paper's application-level evaluation
// (Figures 16 and 17): the NAS Parallel Benchmarks over the three compared
// transports — pipelining, RDMA-Channel zero-copy, and the direct CH3
// zero-copy design.
//
// Usage:
//
//	nasbench -class A -np 4          # Figure 16
//	nasbench -class B -np 8          # Figure 17
//	nasbench -class S -np 4          # smoke-scale sweep
//	nasbench -bench cg -class A -np 4 -transport zerocopy
//	nasbench -bench cg -class A -np 4 -transport pipeline,zerocopy,ch3
//
// Beyond the paper, the SMP mode sweeps multi-core-node layouts
// (DESIGN.md §6): the same ranks packed onto fewer nodes, co-located
// pairs over shared memory, collectives hierarchical:
//
//	nasbench -smp -class A -np 8     # 1, 2, 4 and 8 ranks per node
//	nasbench -bench cg -class A -np 8 -ppn 4 -transport zerocopy
//
// The multi-rail mode (DESIGN.md §10) runs N adapters per node:
//
//	nasbench -rails 1,2,4 -class A -np 4          # NAS CG rail sweep
//	nasbench -bench cg -class A -np 4 -rails 2    # one multi-rail run
//
// Fault injection (DESIGN.md §11) kills one rail on every node mid-run
// and reports the recovery counters alongside the verified result:
//
//	nasbench -bench cg -class S -np 4 -rails 2 -connect lazy -srq \
//	    -fault-rail 1 -fault-at 200
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

func main() {
	class := flag.String("class", "A", "problem class: S, A or B")
	np := flag.Int("np", 4, "number of ranks")
	benchName := flag.String("bench", "", "single benchmark (bt cg ep ft is lu mg sp); empty = full figure")
	transport := flag.String("transport", "", "comma-separated transports (basic, piggyback, pipeline, zerocopy, ch3); empty = the figure's three")
	ppn := flag.Int("ppn", 1, "ranks per node (SMP layout; co-located pairs use shared memory)")
	smp := flag.Bool("smp", false, "sweep ranks-per-node layouts instead of transports")
	connect := flag.String("connect", "eager", "connection management: eager (full mesh at startup) or lazy (on first use)")
	srq := flag.Bool("srq", false, "SRQ-backed eager mode: shared per-process receive pool instead of per-connection rings")
	rails := flag.String("rails", "", "HCAs (rails) per node: a single count for -bench runs (e.g. -rails 2), or a comma list for the NAS CG rail sweep (e.g. -rails 1,2,4)")
	railPolicy := flag.String("rail-policy", "round-robin", "eager rail policy: round-robin, weighted or fixed")
	faultRail := flag.Int("fault-rail", -1, "kill this rail on every node mid-run (permanent HCA failure; needs -bench and -rails ≥ 2; rail 0 carries chunk-mode flow control, so target it only with -srq)")
	faultAt := flag.Float64("fault-at", 100, "µs after startup at which the -fault-rail failure strikes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC live memory) to this path")
	flag.Parse()

	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}
	defer stopProf()

	cl, err := nas.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(2)
	}
	if *benchName != "" && !slices.Contains(nas.Names(), *benchName) {
		fmt.Fprintf(os.Stderr, "nasbench: unknown -bench %q (have %s)\n",
			*benchName, strings.Join(nas.Names(), " "))
		os.Exit(2)
	}
	var mode cluster.ConnectMode
	switch *connect {
	case "eager":
		mode = cluster.ConnectEager
	case "lazy":
		mode = cluster.ConnectLazy
	default:
		fmt.Fprintln(os.Stderr, "nasbench: -connect must be eager or lazy")
		os.Exit(1)
	}
	pol, err := rdmachan.ParseRailPolicy(*railPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}
	railCount := 1
	if *rails != "" {
		counts, err := bench.ParseRails(*rails)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nasbench:", err)
			os.Exit(1)
		}
		if len(counts) > 1 {
			// The NAS CG rail sweep (DESIGN.md §10): one CG run per rail
			// count on the zero-copy design, eager wiring, one rank per
			// node. Reject flags the sweep would silently drop.
			if *benchName != "" && *benchName != "cg" {
				fmt.Fprintln(os.Stderr, "nasbench: the rail sweep runs CG; drop -bench or use -bench cg")
				os.Exit(1)
			}
			if mode != cluster.ConnectEager || *srq || *ppn != 1 || *transport != "" {
				fmt.Fprintln(os.Stderr, "nasbench: the rail sweep runs the zero-copy design, eager wiring, one rank per node; drop -connect/-srq/-ppn/-transport or use a single -rails count with -bench cg")
				os.Exit(1)
			}
			if err := nas.CheckNP("cg", *np); err != nil {
				fmt.Fprintln(os.Stderr, "nasbench:", err)
				os.Exit(1)
			}
			fmt.Print(bench.FormatFigure(bench.NASRailSweep(cl, *np, counts, pol)))
			return
		}
		railCount = counts[0]
	}

	if *faultRail >= 0 {
		if *benchName == "" || *smp {
			fmt.Fprintln(os.Stderr, "nasbench: -fault-rail runs a single benchmark; use -bench (and drop -smp)")
			os.Exit(1)
		}
		if railCount < 2 || *faultRail >= railCount {
			fmt.Fprintf(os.Stderr, "nasbench: -fault-rail %d needs a surviving rail; use -rails ≥ 2 with -fault-rail < rails\n", *faultRail)
			os.Exit(1)
		}
		if *faultAt < 0 {
			fmt.Fprintln(os.Stderr, "nasbench: -fault-at must be ≥ 0")
			os.Exit(1)
		}
	}

	if err := nas.CheckNP(*benchName, *np); err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}

	if *smp {
		if *transport != "" {
			fmt.Fprintln(os.Stderr, "nasbench: -smp sweeps layouts on the zero-copy transport; drop -transport")
			os.Exit(1)
		}
		if mode != cluster.ConnectEager || *srq {
			fmt.Fprintln(os.Stderr, "nasbench: -smp runs eager wiring; drop -connect/-srq or use -bench")
			os.Exit(1)
		}
		var ppns []int
		for p := 1; p <= *np; p *= 2 {
			ppns = append(ppns, p)
		}
		fmt.Print(nas.RunSMP(cl, *np, ppns).Format())
		return
	}

	if *benchName == "" {
		if *ppn != 1 {
			fmt.Fprintln(os.Stderr, "nasbench: the full figure runs one rank per node; use -smp for layout sweeps or -bench with -ppn")
			os.Exit(1)
		}
		if mode != cluster.ConnectEager || *srq {
			fmt.Fprintln(os.Stderr, "nasbench: the full figure runs eager wiring; use -bench with -connect/-srq")
			os.Exit(1)
		}
		if railCount != 1 {
			fmt.Fprintln(os.Stderr, "nasbench: the full figure runs single-rail; use -bench with -rails, or -rails 1,2,4 for the CG sweep")
			os.Exit(1)
		}
		id := "fig16"
		if cl == nas.ClassB {
			id = "fig17"
		}
		fr := nas.RunFigure(id, cl, *np)
		fmt.Print(fr.Format())
		return
	}

	trs := map[string]cluster.Transport{
		"basic":     cluster.TransportBasic,
		"piggyback": cluster.TransportPiggyback,
		"pipeline":  cluster.TransportPipeline,
		"zerocopy":  cluster.TransportZeroCopy,
		"ch3":       cluster.TransportCH3,
	}
	if railCount > 1 && strings.Contains(*transport, "basic") {
		fmt.Fprintln(os.Stderr, "nasbench: the basic design is single-rail; drop basic from -transport or use -rails 1")
		os.Exit(1)
	}
	if *srq {
		// The SRQ mode replaces the channel design (zerocopy label);
		// sweeping the design trio under it would relabel identical runs.
		if *transport == "" {
			*transport = "zerocopy"
		} else if *transport != "zerocopy" {
			fmt.Fprintln(os.Stderr, "nasbench: -srq replaces the channel design; use -transport zerocopy")
			os.Exit(1)
		}
	}
	run := func(tr cluster.Transport) {
		cfg := cluster.Config{NP: *np, CoresPerNode: *ppn, RailsPerNode: railCount,
			Transport: tr, ConnectMode: mode}
		cfg.Chan.UseSRQ = *srq
		cfg.Chan.RailPolicy = pol
		if *faultRail >= 0 {
			nodes := (*np + max(*ppn, 1) - 1) / max(*ppn, 1)
			plan := &fault.Plan{}
			for n := 0; n < nodes; n++ {
				plan.Events = append(plan.Events, fault.Event{
					At:   des.Time(*faultAt * float64(des.Microsecond)),
					Kind: fault.HCADown, Node: n, Rail: *faultRail,
				})
			}
			cfg.Fault = plan
			c := cluster.MustNew(cfg)
			res := nas.RunOn(c, *benchName, cl)
			fs := c.FaultStats()
			c.Close()
			fmt.Printf("%-22s %s  [%d rails downed, %d re-dials, mean recovery %v]\n",
				tr, res, fs.LinksDowned, fs.Redials, fs.MeanRecovery())
			return
		}
		res := nas.Run(*benchName, cl, cfg)
		fmt.Printf("%-22s %s\n", tr, res)
	}
	if *transport != "" {
		for _, name := range strings.Split(*transport, ",") {
			name = strings.TrimSpace(name)
			tr, ok := trs[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "nasbench: unknown transport %q\n", name)
				os.Exit(1)
			}
			run(tr)
		}
		return
	}
	for _, tr := range []cluster.Transport{
		cluster.TransportPipeline, cluster.TransportZeroCopy, cluster.TransportCH3,
	} {
		run(tr)
	}
}
