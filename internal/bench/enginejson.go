// The BENCH_engine.json family (DESIGN.md §12): every speed claim about
// the simulation kernel is a row here — simulated metrics that must
// reproduce exactly (event count, schedule fingerprint, simulated time,
// verification) next to harness wall-clock figures (events/sec,
// wall-clock-per-simulated-second).
package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

// Engine baseline family: schema tag and the wall-per-simulated-second
// regression the gate allows.
const (
	EngineSchema    = "mpich2ib/engine-bench/v1"
	EngineTolerance = 0.15
)

// EngineRun is one measured engine execution: a NAS kernel at one rank
// count and shard count. Events, Fingerprint, SimSeconds and Verified are
// simulated results — deterministic, compared exactly. WallSeconds and
// the two derived rates are harness measurements — machine-dependent,
// compared within EngineTolerance. With Repeats > 1 the wall figures are
// the fastest of the repeats (the least-noise estimator); the simulated
// figures are checked identical across every repeat first.
type EngineRun struct {
	Bench  string `json:"bench"`
	Class  string `json:"class"`
	NP     int    `json:"np"`
	Queue  string `json:"queue"`
	Shards int    `json:"shards,omitempty"` // 0/absent = serial (pre-shard rows)

	Events      uint64  `json:"events"`
	Fingerprint string  `json:"fingerprint"`
	SimSeconds  float64 `json:"simulated_sec"`
	Verified    bool    `json:"verified"`

	WallSeconds   float64 `json:"wall_sec"`
	SetupSeconds  float64 `json:"setup_sec,omitempty"` // cluster construction wall, outside WallSeconds
	EventsPerSec  float64 `json:"events_per_sec"`
	WallPerSimSec float64 `json:"wall_per_simulated_sec"`
	Repeats       int     `json:"repeats"`
}

// key identifies a run for baseline matching. Serial rows written before
// the sharded engine carry no shards field; they alias shards=1.
func (r EngineRun) key() string {
	return fmt.Sprintf("%s.%s/np=%d/%s/shards=%d", r.Bench, r.Class, r.NP, r.Queue, max(r.Shards, 1))
}

func (r EngineRun) exact() []string {
	return []string{
		fmt.Sprintf("events=%d", r.Events),
		"fp=" + r.Fingerprint,
		fmt.Sprintf("sim=%vs", r.SimSeconds),
		fmt.Sprintf("verified=%v", r.Verified),
	}
}

func (r EngineRun) wall() (string, float64) { return "wall_per_simulated_sec", r.WallPerSimSec }

func (EngineRun) family() family {
	return family{EngineSchema, EngineTolerance, "enginebench -out -merge"}
}

// MeasureEngine runs one NAS kernel at np ranks on the scalable
// configuration under study (zero-copy transport, lazy connections, SRQ)
// and the calendar event queue, repeats times, and returns the measured
// row. shards > 1 runs the sharded execution mode (DESIGN.md §13); its
// simulated metrics are shard-count-invariant by construction, so a
// sharded row diverging from a serial row is a bug, not a measurement.
// MeasureEngine panics if the simulated results differ between repeats:
// that is a determinism bug, and recording either value would be wrong.
func MeasureEngine(benchName string, class nas.Class, np, repeats, shards int) EngineRun {
	spec := EngineRun{Bench: benchName, Class: string(class), NP: np,
		Queue: des.QueueCalendar.String(), Shards: max(shards, 1), Repeats: max(repeats, 1)}
	var run EngineRun
	for i := 0; i < spec.Repeats; i++ {
		r := measureEngineOnce(spec, class)
		switch {
		case i == 0:
			run = r
		case !slices.Equal(r.exact(), run.exact()):
			panic(fmt.Sprintf("bench: %s repeat %d diverged from repeat 0: %v vs %v",
				run.key(), i, r.exact(), run.exact()))
		default:
			run.WallSeconds = min(run.WallSeconds, r.WallSeconds)
			run.SetupSeconds = min(run.SetupSeconds, r.SetupSeconds)
		}
	}
	if run.WallSeconds > 0 {
		run.EventsPerSec = float64(run.Events) / run.WallSeconds
	}
	if run.SimSeconds > 0 {
		run.WallPerSimSec = run.WallSeconds / run.SimSeconds
	}
	return run
}

// measureEngineOnce executes the row spec once. The wall clock covers the
// benchmark execution only (the engine's dispatch loop under load); the
// event count is the delta across it, so cluster construction cost does
// not dilute the events/sec figure. Construction is timed separately into
// SetupSeconds.
func measureEngineOnce(run EngineRun, class nas.Class) EngineRun {
	setupStart := time.Now()
	c := cluster.MustNew(cluster.Config{
		NP:          run.NP,
		Transport:   cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy,
		Chan:        rdmachan.Config{UseSRQ: true},
		EngineQueue: des.QueueCalendar,
		Shards:      run.Shards,
	})
	run.SetupSeconds = time.Since(setupStart).Seconds()
	defer c.Close()
	c.Eng.EnableTrace()
	ev0, sim0 := c.Eng.EventsExecuted(), c.Now()
	start := time.Now()
	res := nas.RunOn(c, run.Bench, class)
	run.WallSeconds = time.Since(start).Seconds()
	run.Events = c.Eng.EventsExecuted() - ev0
	run.SimSeconds = (c.Now() - sim0).Seconds()
	run.Fingerprint = fmt.Sprintf("%016x", c.Eng.TraceFingerprint())
	run.Verified = res.Verified
	return run
}
