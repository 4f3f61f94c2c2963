// Command perfbench is the repository's benchmark: it measures simulated
// MPI time and the simulator's own wall time, layer by layer, on four
// workloads. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload p2p-ladder --seed 1 --seconds 20 --trace 0
//
// Each run builds its clusters from the generated inputs, repeats measured
// passes of the workload for --seconds, checks every output and prints a
// human-readable report followed, as its last line, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
// they are its per-layer metrics, and spans of every traced pass are
// written under -out. Any failed check or broken determinism witness
// makes the run exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// gcPercent is enginebench's GOGC (DESIGN.md §12), set here so the
// environment cannot move results.
const gcPercent = 300

// An untraced run makes at least minPasses passes. A traced run makes at
// least minTracedRunPasses passes of each kind and at most maxTracedPasses
// traced ones, which bounds the spans it keeps in memory and writes out;
// its later passes are untraced.
const (
	minPasses          = 3
	minTracedRunPasses = 2
	maxTracedPasses    = 6
)

// runSeconds is the measured phase BENCHMARK.json asks the driver for.
const runSeconds = 20

// workload is one input set the benchmark runs.
type workload struct {
	name, why string

	// guard runs the one-off cross-checks before the measured phase and
	// returns witness entries every measured pass must reproduce.
	guard func(seed uint64, t *tally) (map[string]string, error)

	// pass runs one measured repetition; tr is nil on untraced passes.
	pass func(seed uint64, tr *tracer, t *tally) (*result, error)

	// config is the workload's cluster; extraSetups more of them are built
	// and closed before the measured phase, so setup_s is a median over
	// enough samples even where passes are few.
	config      func() cluster.Config
	extraSetups int
}

var workloads = []*workload{ladderWorkload, nasCGWorkload, collWorkload, railLossWorkload}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()

	if *manifest {
		b, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Print(string(b))
		return 0
	}

	var w *workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	debug.SetGCPercent(gcPercent)
	stamp := hostStamp(w, *seed, *trace)
	stampLine, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", stampLine)

	t := &tally{}
	expect, err := w.guard(*seed, t)
	if err != nil {
		return fail(t, "guard: %v", err)
	}
	fmt.Println("# guard: cross-checks passed")

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	rs, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), tr, expect, t)
	if err != nil {
		return fail(t, "%v", err)
	}
	shards := rs.plain[0].shards
	stamp["shards_effective"] = shards
	fmt.Printf("# shards: %d requested, %d effective\n", stamp["shards"], shards)
	if tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(t, "trace dump: %v", err)
		}
		if err := tr.write(path, stamp); err != nil {
			return fail(t, "trace dump: %v", err)
		}
		printSelfTimes(tr)
		fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
	}
	if t.failed.Load() > 0 {
		return fail(t, "%d of %d checks failed; first: %s", t.failed.Load(), t.attempted.Load(), t.err())
	}
	m := rs.summarize(t, tr)
	printReport(w, m)
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	metrics := make(map[string]any, len(list))
	for _, mt := range list {
		metrics[mt.name] = map[string]any{"value": m[mt.name], "unit": mt.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": true, "attempted": t.attempted.Load(), "failed": t.failed.Load(), "metrics": metrics,
	})
	fmt.Println(string(line))
	return 0
}

// fail reports a failed run: the result line says correct=false and the
// exit code is non-zero.
func fail(t *tally, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	line, _ := json.Marshal(map[string]any{
		"correct": false, "attempted": max(t.attempted.Load(), 1), "failed": max(t.failed.Load(), 1),
		"metrics": map[string]any{},
	})
	fmt.Println(string(line))
	return 1
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostStamp records the host and run settings every result depends on.
func hostStamp(w *workload, seed uint64, trace int) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"gogc":       gcPercent,
		"shards":     max(w.config().Shards, 1),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport prints the end-to-end metrics of the issue's table by name
// and unit; those the workload does not measure print as "-".
func printReport(w *workload, m map[string]float64) {
	fmt.Printf("# %s end-to-end:\n", w.name)
	for _, mt := range endToEnd {
		fmt.Printf("#   %-24s %14.6g %s\n", mt.name, m[mt.name], mt.unit)
	}
	for _, mt := range simResults {
		v, ok := m[mt.name]
		if !ok || (v == 0 && mt.name != "fail_frac") {
			fmt.Printf("#   %-24s %14s %s\n", mt.name, "-", mt.unit)
			continue
		}
		fmt.Printf("#   %-24s %14.10g %s\n", mt.name, v, mt.unit)
	}
	if pct, ok := m["allreduce_256b_tail_pct"]; ok {
		fmt.Printf("#   (allreduce_256b_tail_us is the p%.4g of %d calls, %d beyond it)\n",
			pct, collMeasured.small, tailBeyond)
	}
}

// printSelfTimes prints the traced passes' span totals and self times.
func printSelfTimes(tr *tracer) {
	fmt.Println("# spans by name: count, sim total/self (µs), host total/self (ms)")
	for _, s := range tr.selfTimes() {
		host := "-"
		if s.HostTotal >= 0 {
			host = fmt.Sprintf("%.3f / %.3f", float64(s.HostTotal)/1e6, float64(s.HostSelf)/1e6)
		}
		fmt.Printf("#   %-22s %8d  %12.3f / %-12.3f  %s\n", s.Name, s.Count,
			float64(s.SimTotal)/1e3, float64(s.SimSelf)/1e3, host)
	}
}
