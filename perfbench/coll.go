package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/switchfab"
)

const (
	collNP       = 64
	collShards   = 2
	small        = 256      // bytes per allreduce below the 3 KiB crossover
	large        = 64 << 10 // bytes per allreduce above it
	alltoallPeer = 1 << 10  // bytes per peer
)

// collCounts sizes one coll-fattree pass: calls per phase.
type collCounts struct{ small, large, alltoall int }

// collMeasured has enough 256 B calls for a tail percentile with 10 calls
// beyond it; collReduced is the shards-vs-serial cross-check.
var (
	collMeasured = collCounts{small: 40, large: 4, alltoall: 2}
	collReduced  = collCounts{small: 4, large: 1, alltoall: 1}
)

var collWorkload = &workload{
	name: "coll-fattree",
	why:  "np=64 eager full mesh on a contended fattree-d4-u1 fabric, 2 engine shards: allreduce on each side of the 3 KiB crossover and alltoall load MPI algorithms, switch uplinks and shard windows",
	guard: func(seed uint64, t *tally) (map[string]string, error) {
		serial, err := collPass(seed, collReduced, 1, nil, t)
		if err != nil {
			return nil, err
		}
		runtime.GC() // one eager-mesh cluster's rings in memory at a time
		sharded, err := collPass(seed, collReduced, collShards, nil, t)
		if err != nil {
			return nil, err
		}
		if d := diff(sharded.witness(), serial.witness(), 0); d != "" {
			return nil, fmt.Errorf("shards=%d diverged from the serial engine:%s", collShards, d)
		}
		fmt.Printf("# cross-check: reduced coll-fattree at shards=%d matches serial: fp %s\n", collShards, serial.fp)
		return map[string]string{}, nil
	},
	pass: func(seed uint64, tr *tracer, t *tally) (*result, error) {
		return collPass(seed, collMeasured, collShards, tr, t)
	},
	config:      func() cluster.Config { return collConfig(collShards) },
	extraSetups: 3,
}

func collConfig(shards int) cluster.Config {
	return cluster.Config{
		NP:        collNP,
		Transport: cluster.TransportZeroCopy,
		Switch:    &switchfab.Config{LeafDown: 4, LeafUp: 1},
		Shards:    shards,
	}
}

// operand is element i of rank r's allreduce input for call k: an integer
// a + r*b, so the float sum over ranks is exact whatever the reduction
// order, and equals np*a + b*np*(np-1)/2.
func operand(k uint64, i, r int) (a, b float64) {
	return float64((k + uint64(i)*7) % 1024), float64((k>>10 + uint64(i)) % 512)
}

// collPass runs the three collective phases once, a barrier between
// phases, checking every result against a locally computed reference.
func collPass(seed uint64, n collCounts, shards int, tr *tracer, t *tally) (*result, error) {
	r := newResult()
	root := tr.begin("coll.pass", -1, 0, true)
	start := time.Now()
	c, err := newCluster(collConfig(shards), tr, root, r)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Eng.EnableTrace()
	ev0 := c.Eng.EventsExecuted()

	var times [3][]des.Time // rank 0's per-call simulated durations per phase
	var hostMs [3]float64   // rank 0's host milliseconds per call per phase
	var direct atomic.Int64
	launch := tr.begin("Cluster.Launch", root, c.Now(), true)
	c.Launch(func(comm *mpi.Comm) {
		me := comm.Rank()
		// call runs one collective, timing it on rank 0.
		call := func(name string, phase int, f func()) {
			if me != 0 {
				f()
				return
			}
			sp := tr.begin(name, launch, comm.Proc().Now(), false)
			t0 := comm.Proc().Now()
			f()
			times[phase] = append(times[phase], comm.Proc().Now()-t0)
			tr.end(sp, comm.Proc().Now())
		}
		barrier := func() {
			if me != 0 {
				comm.Barrier()
				return
			}
			sp := tr.begin("Comm.Barrier", launch, comm.Proc().Now(), false)
			comm.Barrier()
			tr.end(sp, comm.Proc().Now())
		}
		phase := func(p, calls int, body func(k int)) {
			barrier()
			h0 := time.Now()
			for k := 0; k < calls; k++ {
				body(k)
			}
			if me == 0 {
				hostMs[p] = float64(time.Since(h0).Nanoseconds()) / 1e6 / float64(calls)
			}
		}
		allreduce := func(p, size, calls int) {
			elems := size / 8
			sb, sbytes := comm.Alloc(size)
			rb, rbytes := comm.Alloc(size)
			np := float64(comm.Size())
			phase(p, calls, func(k int) {
				kk := key(seed, 4, size, k)
				for i := 0; i < elems; i++ {
					a, b := operand(kk, i, me)
					mpi.PutFloat64(sbytes, i, a+float64(me)*b)
				}
				call("Comm.Allreduce", p, func() { comm.Allreduce(sb, rb, mpi.Float64, mpi.Sum) })
				ok := true
				for i := 0; i < elems && ok; i++ {
					a, b := operand(kk, i, me)
					ok = mpi.GetFloat64(rbytes, i) == np*a+b*np*(np-1)/2
				}
				t.check(ok, "allreduce %d B call %d wrong on rank %d", size, k, me)
			})
		}
		alltoall := func(p, calls int) {
			size := comm.Size() * alltoallPeer
			sb, sbytes := comm.Alloc(size)
			rb, rbytes := comm.Alloc(size)
			phase(p, calls, func(k int) {
				for j := 0; j < comm.Size(); j++ {
					fill(sbytes[j*alltoallPeer:(j+1)*alltoallPeer], key(seed, 5, k, me, j))
				}
				call("Comm.Alltoall", p, func() { comm.Alltoall(sb, rb) })
				ok := true
				for j := 0; j < comm.Size() && ok; j++ {
					ok = matches(rbytes[j*alltoallPeer:(j+1)*alltoallPeer], key(seed, 5, k, j, me))
				}
				t.check(ok, "alltoall call %d wrong on rank %d", k, me)
			})
		}
		allreduce(0, small, n.small)
		allreduce(1, large, n.large)
		alltoall(2, n.alltoall)
		barrier()
		direct.Add(int64(comm.RDMADirectCalls()))
	})
	tr.end(launch, c.Now())
	r.stopWall(start)
	tr.end(root, c.Now())

	r.events = c.Eng.EventsExecuted() - ev0
	r.fp = fmt.Sprintf("%016x", c.Eng.TraceFingerprint())
	r.sim["allreduce_256b_us"] = medianTime(times[0])
	tail, pct := tailTime(times[0])
	r.sim["allreduce_256b_tail_us"] = tail
	r.sim["allreduce_256b_tail_pct"] = pct
	r.sim["allreduce_64k_us"] = medianTime(times[1])
	r.sim["alltoall_1k_us"] = medianTime(times[2])
	r.host["mpi.allreduce_256b_host_ms"] = hostMs[0]
	r.host["mpi.allreduce_64k_host_ms"] = hostMs[1]
	r.host["mpi.alltoall_1k_host_ms"] = hostMs[2]
	r.counts["mpi.rdma_direct_calls"] = float64(direct.Load())
	collectLayers(c, r)
	return r, nil
}

func medianTime(ts []des.Time) float64 {
	xs := make([]float64, len(ts))
	for i, d := range ts {
		xs[i] = d.Micros()
	}
	return median(xs)
}

// tailBeyond is how many calls the tail percentile leaves beyond it.
const tailBeyond = 10

// tailTime returns the highest percentile of ts that has at least ten
// calls beyond it, and that percentile; NaN when there are too few calls.
func tailTime(ts []des.Time) (us, pct float64) {
	if len(ts) <= tailBeyond {
		return math.NaN(), math.NaN()
	}
	s := append([]des.Time(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) - 1 - tailBeyond
	return s[idx].Micros(), 100 * float64(idx+1) / float64(len(s))
}
