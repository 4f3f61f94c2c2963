package main

import (
	"fmt"
	"runtime"
	"time"
)

// runs holds the passes of one run's measured phase.
type runs struct {
	plain, traced []*result
	setups        []float64 // every set-up's host seconds, extra ones included
	allocMiB      float64   // heap bytes allocated over the phase
	gcCycles      uint32    // collections the phase's allocation triggered
}

// measure runs one warm-up pass, then the extra set-ups, then repeats
// passes until the measured phase has lasted d and enough passes have run.
// A traced run alternates untraced and traced passes, so both are measured
// under the same host conditions and their wall difference is the tracing
// overhead. The warm-up pass must reproduce the guard's expectations, and
// every later pass the warm-up's determinism witness.
func measure(w *workload, seed uint64, d time.Duration, tr *tracer, expect map[string]string, t *tally) (*runs, error) {
	// Each pass and set-up starts from a collected heap, so none pays for
	// the previous one's garbage and peak memory is one pass's.
	runtime.GC()
	warm, err := w.pass(seed, nil, t)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	witness := warm.witness()
	if d := diff(witness, expect, 1e-12); d != "" {
		return nil, fmt.Errorf("warm-up pass disagrees with the cross-check:%s", d)
	}
	fmt.Printf("# witness events=%s fp=%s\n", witness["events"], witness["fp"])

	rs := &runs{}
	for i := 0; i < w.extraSetups; i++ {
		runtime.GC()
		s := newResult()
		c, err := newCluster(w.config(), nil, -1, s)
		if err != nil {
			return nil, err
		}
		c.Close()
		rs.setups = append(rs.setups, s.setups...)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; ; i++ {
		var ptr *tracer
		if tr != nil && i%2 == 1 && len(rs.traced) < maxTracedPasses {
			ptr = tr
			ptr.setRun(fmt.Sprintf("%s/seed%d/pass%d", w.name, seed, i))
		}
		runtime.GC()
		r, err := w.pass(seed, ptr, t)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if d := diff(r.witness(), witness, 0); d != "" {
			return nil, fmt.Errorf("pass %d (traced %v) diverged from the warm-up pass:%s", i, ptr != nil, d)
		}
		if ptr != nil {
			rs.traced = append(rs.traced, r)
		} else {
			rs.plain = append(rs.plain, r)
			rs.setups = append(rs.setups, r.setups...)
		}
		enough := len(rs.plain) >= minPasses
		if tr != nil {
			enough = len(rs.plain) >= minTracedRunPasses && len(rs.traced) >= minTracedRunPasses
		}
		if enough && time.Since(start) >= d {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	rs.allocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rs.gcCycles = (ms1.NumGC - ms1.NumForcedGC) - (ms0.NumGC - ms0.NumForcedGC)
	fmt.Printf("# passes: %d untraced, %d traced in %.1f s\n", len(rs.plain), len(rs.traced), time.Since(start).Seconds())
	return rs, nil
}

// summarize turns a run's passes into every metric it reports. Host
// timings are medians over the untraced passes; simulated results and
// counters repeat exactly, so any pass gives them.
func (rs *runs) summarize(t *tally, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	var walls, twalls []float64
	for _, r := range rs.plain {
		walls = append(walls, r.wall)
	}
	for _, r := range rs.traced {
		twalls = append(twalls, r.wall)
	}
	fmt.Printf("# pass walls (s): %.4g\n", walls)
	m["wall_s"] = median(walls)
	m["setup_s"] = median(rs.setups)
	m["peak_rss_mb"] = peakRSSMiB()

	last := rs.plain[len(rs.plain)-1]
	for k, v := range last.sim {
		m[k] = v
	}
	for k, v := range last.counts {
		m[k] = v
	}
	for k := range last.host {
		var xs []float64
		for _, r := range rs.plain {
			xs = append(xs, r.host[k])
		}
		m[k] = median(xs)
	}
	m["des.events"] = float64(last.events)
	m["des.host_ns_per_event"] = m["wall_s"] * 1e9 / float64(last.events)
	if l := m["regcache.lookups"]; l > 0 {
		m["regcache.hit_ratio"] = m["regcache.hits"] / l
	}
	if a := t.attempted.Load(); a > 0 {
		m["fail_frac"] = float64(t.failed.Load()) / float64(a)
	}
	passes := float64(len(rs.plain) + len(rs.traced))
	m["runtime.alloc_mb"] = rs.allocMiB / passes
	m["runtime.gc_cycles"] = float64(rs.gcCycles) / passes
	if tr != nil {
		m["trace.wall_s"] = median(twalls)
		m["trace.overhead_frac"] = median(twalls)/m["wall_s"] - 1
		m["trace.spans"] = float64(len(tr.spans))
	}
	return m
}
