package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/des"
)

// span is one timed call into a layer's public function. Sim times are
// the simulated clock at entry and exit; host times are nanoseconds since
// the tracer started, or -1 where the call does not have one caller
// driving it (a rank's call inside a many-rank launch also runs the other
// ranks' events, so its host interval is not the call's own cost).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root span
	Run       string `json:"run"`
	Name      string `json:"name"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun names the pass that following spans belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span and returns its id (-1 when tracing is off). host
// says whether the host interval is meaningful for this call.
func (t *tracer) begin(name string, parent int, sim des.Time, host bool) int {
	if t == nil {
		return -1
	}
	hs := int64(-1)
	if host {
		hs = int64(time.Since(t.t0))
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		SimStart: int64(sim), SimEnd: int64(sim), HostStart: hs, HostEnd: -1})
	t.mu.Unlock()
	return id
}

// end closes span id at simulated time sim.
func (t *tracer) end(id int, sim des.Time) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id]
	s.SimEnd = int64(sim)
	if s.HostStart >= 0 {
		s.HostEnd = now
	}
	t.mu.Unlock()
}

// selfTime is one span name's total and self time, simulated and host.
type selfTime struct {
	Name                string
	Count               int
	SimTotal, SimSelf   int64
	HostTotal, HostSelf int64 // -1 when the spans carry no host time
}

// selfTimes aggregates by span name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func (t *tracer) selfTimes() []selfTime {
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := make(map[string]*selfTime)
	var order []string
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name, HostTotal: -1, HostSelf: -1}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		var sim, host [][2]int64
		for _, c := range children[s.ID] {
			cs := t.spans[c]
			sim = append(sim, [2]int64{cs.SimStart, cs.SimEnd})
			if cs.HostStart >= 0 {
				host = append(host, [2]int64{cs.HostStart, cs.HostEnd})
			}
		}
		st.SimTotal += s.SimEnd - s.SimStart
		st.SimSelf += s.SimEnd - s.SimStart - covered(sim, s.SimStart, s.SimEnd)
		if s.HostStart >= 0 {
			if st.HostTotal < 0 {
				st.HostTotal, st.HostSelf = 0, 0
			}
			st.HostTotal += s.HostEnd - s.HostStart
			st.HostSelf += s.HostEnd - s.HostStart - covered(host, s.HostStart, s.HostEnd)
		}
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span with the run stamp as one JSON document.
func (t *tracer) write(path string, stamp map[string]any) error {
	b, err := json.Marshal(struct {
		Stamp map[string]any `json:"stamp"`
		Spans []span         `json:"spans"`
	}{stamp, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
