// Command enginebench measures the DES kernel's speed under real MPI load
// and maintains the committed BENCH_engine.json baseline (DESIGN.md §12).
// Each row runs a NAS kernel on the scalable stack (zero-copy transport,
// lazy connections, SRQ) and records the simulated results exactly —
// event count, schedule fingerprint, simulated time, verification — next
// to the harness wall-clock rates (events/sec, wall-clock-per-simulated-
// second).
//
// Usage:
//
//	enginebench -np 64,256,1024 -repeat 3 -out BENCH_engine.json   # cheap rows
//	enginebench -np 4096 -out BENCH_engine.json -merge     # the ~30-minute row
//	enginebench -np 64 -compare BENCH_engine.json          # CI regression gate
//	enginebench -np 1024 -repeat 3                         # fastest of 3 walls
//	enginebench -np 1024 -shards 4                         # sharded engine (§13)
//	enginebench -np 1024 -shards 1,4 -out BENCH_engine.json -merge # both rows
//	enginebench -np 1024 -cpuprofile cpu.prof              # profile the run
//
// In comparison mode the simulated metrics must match the baseline
// exactly — a mismatch means the simulation changed, which is never a
// mere performance regression — and wall-clock-per-simulated-second may
// not regress beyond bench.EngineTolerance (15%). A measured row missing
// from the baseline also fails: new np/shards combinations are admitted
// deliberately with -out -merge, never silently. Every row runs the
// calendar event queue; the heap queue is the test oracle behind
// cluster.Config.EngineQueue (TestEngineQueueEquivalence). Exits 1 on a
// gate violation and 2 on misuse.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/nas"
)

func main() {
	os.Exit(run())
}

func run() int {
	nps := flag.String("np", "1024", "comma-separated rank counts to measure")
	benchName := flag.String("bench", "cg", "NAS kernel to drive the engine with")
	class := flag.String("class", "S", "problem class: S, A or B")
	shardsFlag := flag.String("shards", "1", "comma-separated shard counts; >1 runs the sharded engine (DESIGN.md §13)")
	repeat := flag.Int("repeat", 1, "runs per row; the fastest wall clock is recorded")
	out := flag.String("out", "", "write the report as JSON to this path")
	merge := flag.Bool("merge", false, "with -out: update rows in an existing report instead of replacing the file (regenerate one np without re-running the rest)")
	compare := flag.String("compare", "", "compare against this baseline report instead of just printing")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	gogc := flag.Int("gogc", 300, "GC percent for the measurement (a wide cluster's heap is mostly live, so the default collector cadence mostly re-marks it; 0 keeps the runtime default)")
	flag.Parse()

	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}

	stop, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stop()

	cl, err := nas.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		return 2
	}
	if !slices.Contains(nas.Names(), *benchName) {
		fmt.Fprintf(os.Stderr, "enginebench: unknown -bench %q (have %s)\n",
			*benchName, strings.Join(nas.Names(), " "))
		return 2
	}

	var shardCounts []int
	for _, f := range strings.Split(*shardsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -shards entry %q\n", f)
			return 2
		}
		shardCounts = append(shardCounts, n)
	}

	rep := bench.NewReport[bench.EngineRun]()
	for _, f := range strings.Split(*nps, ",") {
		np, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -np entry %q\n", f)
			return 2
		}
		if err := nas.CheckNP(*benchName, np); err != nil {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
			return 2
		}
		for _, shards := range shardCounts {
			r := bench.MeasureEngine(*benchName, cl, np, *repeat, shards)
			rep.Runs = append(rep.Runs, r)
			fmt.Printf("%s.%s np=%d queue=%s shards=%d: events=%d fp=%s sim=%.6fs wall=%.2fs setup=%.2fs ev/s=%.0f wall/simsec=%.1f verified=%v\n",
				r.Bench, r.Class, r.NP, r.Queue, r.Shards, r.Events, r.Fingerprint,
				r.SimSeconds, r.WallSeconds, r.SetupSeconds, r.EventsPerSec, r.WallPerSimSec, r.Verified)
		}
	}
	return bench.Publish(rep, *out, *merge, *compare)
}
