package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

const nasNP = 256

var nasCGWorkload = &workload{
	name:        "nas-cg",
	why:         "NAS CG class S, np=256, lazy connections + SRQ, serial engine: host time goes to the DES kernel, transport polling over many endpoints and the SRQ pool while few bytes move",
	guard:       nasCGGuard,
	pass:        nasCGPass,
	config:      nasCGConfig,
	extraSetups: 8,
}

// nasCGConfig is the configuration of BENCH_engine.json's cg.S rows.
func nasCGConfig() cluster.Config {
	return cluster.Config{
		NP:          nasNP,
		Transport:   cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy,
		Chan:        rdmachan.Config{UseSRQ: true},
	}
}

// nasCGGuard reads the committed engine baseline's cg.S np=256 serial row:
// every measured pass must reproduce its event count, fingerprint and
// simulated seconds exactly.
func nasCGGuard(uint64, *tally) (map[string]string, error) {
	b, err := os.ReadFile("BENCH_engine.json")
	if err != nil {
		return nil, fmt.Errorf("engine baseline: %w", err)
	}
	var rep struct {
		Runs []struct {
			Bench, Class, Queue string
			NP, Shards          int
			Events              uint64
			Fingerprint         string
			SimulatedSec        float64 `json:"simulated_sec"`
		}
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("engine baseline: %w", err)
	}
	for _, r := range rep.Runs {
		if r.Bench == "cg" && r.Class == "S" && r.NP == nasNP && r.Queue == "calendar" && r.Shards == 1 {
			fmt.Printf("# cross-check: BENCH_engine.json cg.S np=%d row: events %d fp %s sim %vs\n",
				nasNP, r.Events, r.Fingerprint, r.SimulatedSec)
			return map[string]string{
				"events":       fmt.Sprint(r.Events),
				"fp":           r.Fingerprint,
				"engine_sim_s": fmt.Sprint(r.SimulatedSec),
			}, nil
		}
	}
	return nil, fmt.Errorf("engine baseline: no cg.S np=%d calendar shards=1 row", nasNP)
}

func nasCGPass(_ uint64, tr *tracer, t *tally) (*result, error) {
	r, _, err := nasPass(nasCGConfig(), tr, t)
	return r, err
}

// nasPass builds the cluster, runs CG class S on it once and collects the
// layers. It returns the cluster's fault counters for the caller's checks.
func nasPass(cfg cluster.Config, tr *tracer, t *tally) (*result, cluster.FaultStats, error) {
	r := newResult()
	root := tr.begin("nas.pass", -1, 0, true)
	start := time.Now()
	c, err := newCluster(cfg, tr, root, r)
	if err != nil {
		return nil, cluster.FaultStats{}, err
	}
	defer c.Close()
	c.Eng.EnableTrace()
	ev0, sim0 := c.Eng.EventsExecuted(), c.Now()
	sp := tr.begin("nas.RunOn", root, sim0, true)
	res := nas.RunOn(c, "cg", nas.ClassS)
	tr.end(sp, c.Now())
	r.stopWall(start)
	tr.end(root, c.Now())
	t.check(res.Verified, "nas: %v", res)

	r.events = c.Eng.EventsExecuted() - ev0
	r.fp = fmt.Sprintf("%016x", c.Eng.TraceFingerprint())
	r.sim["engine_sim_s"] = (c.Now() - sim0).Seconds()
	r.sim["nas_sim_s"] = res.Time
	collectLayers(c, r)
	return r, c.FaultStats(), nil
}

// railLossWorkload is NAS CG on the SMP, two-rail, lazy+SRQ stack with rail
// 1 of every node failing mid-run (TestCGSurvivesRailLoss at np=256).
var railLossWorkload = newRailLoss()

const (
	railLossPPN   = 4
	railLossNodes = nasNP / railLossPPN
)

func railLossConfig(plan *fault.Plan) cluster.Config {
	cfg := nasCGConfig()
	cfg.CoresPerNode = railLossPPN
	cfg.RailsPerNode = 2
	cfg.Shards = 2
	cfg.Fault = plan
	return cfg
}

func newRailLoss() *workload {
	var plan *fault.Plan
	return &workload{
		name: "cg-railloss",
		why:  "CG np=256 at 4 ranks/node on 2 rails, rail 1 lost on every node at a seeded instant: shmchan, striping, fault injection, SRQ re-dial and SMP collectives run only here",
		// The guard runs the fault-free resilient baseline and places
		// the outage at a seeded point between 20% and 70% of its
		// simulated run time.
		guard: func(seed uint64, t *tally) (map[string]string, error) {
			free, _, err := nasPass(railLossConfig(&fault.Plan{}), nil, t)
			if err != nil {
				return nil, err
			}
			span := free.sim["engine_sim_s"] * float64(des.Second)
			at := des.Time(span * (0.2 + 0.5*float64(mix(seed)%1000)/1000))
			plan = &fault.Plan{}
			for n := 0; n < railLossNodes; n++ {
				plan.Events = append(plan.Events, fault.Event{At: at, Kind: fault.HCADown, Node: n, Rail: 1})
			}
			fmt.Printf("# rail 1 of %d nodes fails at %v (fault-free run %v)\n", railLossNodes, at, des.Time(span))
			return map[string]string{}, nil
		},
		pass: func(_ uint64, tr *tracer, t *tally) (*result, error) {
			r, fs, err := nasPass(railLossConfig(plan), tr, t)
			if err != nil {
				return nil, err
			}
			t.check(fs.LinksDowned == railLossNodes && fs.Redials > 0,
				"rail loss: %d links downed, %d re-dials; want %d and some", fs.LinksDowned, fs.Redials, railLossNodes)
			r.sim["recovery_us"] = fs.MeanRecovery().Micros()
			return r, nil
		},
		config:      func() cluster.Config { return railLossConfig(plan) },
		extraSetups: 8,
	}
}
