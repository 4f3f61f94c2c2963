// The BENCH_coll.json family (DESIGN.md §14): each run is one
// (collective, algorithm, network) curve of per-call times. The simulated
// times are deterministic and compared exactly, so the committed baseline
// pins both the algorithm schedules and the switch model's contention
// arithmetic — including the flat/fat-tree crossovers the default tuning
// table encodes.
package bench

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/switchfab"
)

// Coll baseline family: schema tag and the wall regression the gate
// allows (walls are sub-second, so generous).
const (
	CollSchema    = "mpich2ib/coll-bench/v1"
	CollTolerance = 1.0
)

// CollPoint is one simulated measurement: message size against the
// per-call completion time of the collective at it.
type CollPoint struct {
	Size int     `json:"size"`
	Us   float64 `json:"us"`
}

// CollRun is one algorithm's curve on one network model.
type CollRun struct {
	Coll        string      `json:"coll"`
	Alg         string      `json:"alg"`
	Net         string      `json:"net"`
	NP          int         `json:"np"`
	CPN         int         `json:"cpn"`
	Points      []CollPoint `json:"points"`
	WallSeconds float64     `json:"wall_sec"`
}

// key identifies a run for baseline matching.
func (r CollRun) key() string {
	return fmt.Sprintf("coll=%s/alg=%s/net=%s/np=%d/cpn=%d", r.Coll, r.Alg, r.Net, r.NP, r.CPN)
}

func (r CollRun) exact() []string {
	items := make([]string, len(r.Points))
	for i, p := range r.Points {
		items[i] = fmt.Sprintf("size=%d us=%v", p.Size, p.Us)
	}
	return items
}

func (r CollRun) wall() (string, float64) { return "wall_sec", r.WallSeconds }

func (CollRun) family() family {
	return family{CollSchema, CollTolerance, "mpich2ib-bench -coll ... -out"}
}

// MeasureColl measures every applicable algorithm of each listed
// collective (callers validate the names) on the given layout, over the
// flat wire and over an oversubscribed fat tree (4 nodes per leaf, 1
// uplink — the canonical contended model), and returns one run per
// (collective, algorithm, net).
func MeasureColl(colls []string, np, cpn int, sizes []int, iters int) *Report[CollRun] {
	rep := NewReport[CollRun]()
	for _, sw := range []*switchfab.Config{nil, {LeafDown: 4, LeafUp: 1}} {
		for _, coll := range colls {
			for _, alg := range applicableAlgs(coll, mpi.AlgorithmNames(coll), np, cpn, sw) {
				start := time.Now()
				s := collAlgSeries(coll, alg, np, cpn, sw, sizes, iters, mpi.DefaultTuning())
				run := CollRun{Coll: coll, Alg: alg, Net: netLabel(sw), NP: np, CPN: cpn,
					WallSeconds: time.Since(start).Seconds()}
				for _, p := range s.Points {
					run.Points = append(run.Points, CollPoint{Size: p.Size, Us: p.Value})
				}
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	return rep
}

// CollFigures renders the measured records as one figure per network
// model, one series per collective/algorithm — the printed tables behind
// the tuning crossovers, always exactly the committed JSON.
func CollFigures(rep *Report[CollRun]) []Figure {
	var figs []Figure
	at := map[string]int{}
	for _, run := range rep.Runs {
		i, ok := at[run.Net]
		if !ok {
			i, at[run.Net] = len(figs), len(figs)
			figs = append(figs, Figure{
				ID: "coll-json-" + run.Net,
				Title: fmt.Sprintf("Collective algorithms on %s (%d ranks, %d per node)",
					run.Net, run.NP, run.CPN),
				XLabel: "message size (bytes)", YLabel: "time per call (µs)",
			})
		}
		s := Series{Name: run.Coll + "/" + run.Alg}
		for _, p := range run.Points {
			s.Points = append(s.Points, Point{Size: p.Size, Value: p.Us})
		}
		figs[i].Series = append(figs[i].Series, s)
	}
	return figs
}
