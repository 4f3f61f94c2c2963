package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// result is what one measured pass of a workload produced. Sim values and
// the determinism witnesses (events, fingerprint) must repeat exactly from
// pass to pass; host values are timings.
type result struct {
	wall   float64   // host seconds of the pass outside cluster.New
	setups []float64 // host seconds inside each cluster.New of the pass
	shards int       // engine shards the pass's cluster ran on

	events uint64
	fp     string // TraceFingerprint(s), hex

	sim    map[string]float64 // simulated metrics, exact
	counts map[string]float64 // per-layer counters, exact
	host   map[string]float64 // per-layer host timings
}

func newResult() *result {
	return &result{sim: map[string]float64{}, counts: map[string]float64{}, host: map[string]float64{}}
}

// stopWall ends the pass begun at start. Set-up is timed on its own
// (setup_s), so the pass's wall leaves out the time inside cluster.New.
func (r *result) stopWall(start time.Time) {
	r.wall = time.Since(start).Seconds()
	for _, s := range r.setups {
		r.wall -= s
	}
}

// witness is the part of a result that must repeat bit for bit: the
// event count, the schedule fingerprint(s) and every simulated metric.
func (r *result) witness() map[string]string {
	w := map[string]string{"events": fmt.Sprint(r.events), "fp": r.fp}
	for k, v := range r.sim {
		w[k] = fmt.Sprint(v)
	}
	return w
}

// diff lists the witness entries where got differs from want, over want's
// keys, in name order; empty when they agree. Numbers may differ by tol
// relative to want: a cross-check averages over fewer iterations than a
// measured pass, so its last bits may round differently.
func diff(got, want map[string]string, tol float64) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out string
	for _, k := range keys {
		g, errG := strconv.ParseFloat(got[k], 64)
		w, errW := strconv.ParseFloat(want[k], 64)
		if errG == nil && errW == nil && math.Abs(g-w) <= tol*math.Abs(w) {
			continue
		}
		if got[k] != want[k] {
			out += fmt.Sprintf(" %s=%s (want %s)", k, got[k], want[k])
		}
	}
	return out
}

// tally counts checked operations. Ranks of a sharded run check their
// outputs on several OS threads, hence the atomics.
type tally struct {
	attempted, failed atomic.Int64
	firstErr          atomic.Value // string
}

// check records one checked operation; ok false marks it failed.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
}

func (t *tally) err() string {
	if s, ok := t.firstErr.Load().(string); ok {
		return s
	}
	return ""
}

// mix is splitmix64: the benchmark's only source of generated inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key derives a pattern key from the seed and a message's coordinates.
func key(seed uint64, coords ...int) uint64 {
	k := mix(seed)
	for _, c := range coords {
		k = mix(k ^ uint64(c))
	}
	return k
}

// fill writes the payload pattern for k into b.
func fill(b []byte, k uint64) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], mix(k+uint64(i)))
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(k+uint64(i)))
		copy(b[i:], w[:])
	}
}

// matches reports whether b holds the payload pattern for k.
func matches(b []byte, k uint64) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != mix(k+uint64(i)) {
			return false
		}
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(k+uint64(i)))
		for j := i; j < len(b); j++ {
			if b[j] != w[j-i] {
				return false
			}
		}
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
