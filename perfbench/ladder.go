package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// ladderCounts sizes one p2p-ladder pass. The figure producers' own counts
// (producerCounts) are what the cross-check runs at.
type ladderCounts struct {
	rungIters int // 4 B round trips on each of the verbs, channel and MPI rungs
	iters64k  int // 64 KiB MPI round trips
	iters1m   int // 1 MiB MPI round trips
	windows   int // measured 1 MiB windows of ladderWindow messages
}

// verbsIters is bench.VerbsLatency's iteration count and producerCounts
// are bench.Headline's 10 iterations and 3 windows.
const verbsIters = 20

var producerCounts = ladderCounts{rungIters: 10, iters64k: 10, iters1m: 10, windows: 3}

// measuredCounts is one measured pass: about 0.15 s of host time. Its
// window count stays the producer's, so bw_1m_mbps averages identically.
var measuredCounts = ladderCounts{rungIters: 400, iters64k: 100, iters1m: 20, windows: 3}

const (
	smallMsg     = 4
	mediumMsg    = 64 << 10
	largeMsg     = 1 << 20
	ladderWindow = 8 // bench.windowFor(1 MiB)
	verbsPad     = 64
)

// ladderPass runs the three 4 B rungs and the MPI size ladder once.
func ladderPass(seed uint64, n ladderCounts, tr *tracer, t *tally) (*result, error) {
	r := newResult()
	start := time.Now()
	root := tr.begin("ladder.pass", -1, 0, true)

	v, err := verbsRung(seed, n.rungIters, tr, root, t)
	if err != nil {
		return nil, err
	}
	ch, err := channelRung(seed, n.rungIters, tr, root, t)
	if err != nil {
		return nil, err
	}
	m, err := mpiLadder(seed, n, tr, root, t, r)
	if err != nil {
		return nil, err
	}
	r.stopWall(start)
	tr.end(root, 0)

	r.events = v.events + ch.events + m.events
	r.fp = fmt.Sprintf("%016x/%016x/%016x", v.fp, ch.fp, m.fp)
	r.sim["ib.rtt_us"] = 2 * v.oneWayUs
	r.sim["rdmachan.rtt_us"] = 2 * ch.oneWayUs
	r.sim["mpi.rtt_us"] = 2 * m.oneWayUs
	r.host["ib.host_ns_per_rtt"] = v.hostNs
	r.host["rdmachan.host_ns_per_rtt"] = ch.hostNs
	r.host["mpi.host_ns_per_rtt"] = m.hostNs
	return r, nil
}

// rung is one 4 B ping-pong measurement.
type rung struct {
	oneWayUs float64 // simulated µs per message, as the figure producers average it
	hostNs   float64 // host nanoseconds per round trip
	events   uint64
	fp       uint64
}

// oneWay is the figure producers' latency: elapsed µs over 2*iters.
func oneWay(elapsed des.Time, iters int) float64 {
	return elapsed.Micros() / float64(2*iters)
}

// twoNodes builds a bare two-adapter fabric on a fresh serial engine.
func twoNodes() (*des.Engine, [2]*model.Node, [2]*ib.HCA) {
	prm := model.Testbed()
	eng := des.NewEngine()
	eng.EnableTrace()
	fab := ib.NewFabric(eng, prm)
	var nodes [2]*model.Node
	var hcas [2]*ib.HCA
	for i := range nodes {
		nodes[i] = model.NewNode(i, prm)
		hcas[i] = fab.NewHCA(nodes[i])
	}
	return eng, nodes, hcas
}

// verbsRung is the raw-verbs rung, bench.VerbsLatency's protocol: each
// side RDMA-writes a 64-byte pad into the peer and polls the pad's last
// byte for the sequence number. The pad carries the 4 B payload, which
// the receiver checks.
func verbsRung(seed uint64, iters int, tr *tracer, parent int, t *tally) (rung, error) {
	eng, nodes, hcas := twoNodes()
	defer eng.Shutdown()
	var qp [2]*ib.QP
	var pd [2]*ib.PD
	for i := range hcas {
		pd[i] = hcas[i].AllocPD()
		qp[i] = hcas[i].CreateQP(pd[i], hcas[i].CreateCQ(), hcas[i].CreateCQ())
	}
	if err := ib.Connect(qp[0], qp[1]); err != nil {
		return rung{}, fmt.Errorf("verbs rung: %w", err)
	}
	var out rung
	var setupErr error
	eng.Spawn("r0", func(p *des.Proc) {
		acc := ib.AccessLocalWrite | ib.AccessRemoteWrite
		var src, pad [2]uint64
		var srcB, padB [2][]byte
		var srcMR, padMR [2]*ib.MR
		for i := range nodes {
			src[i], srcB[i] = nodes[i].Mem.Alloc(verbsPad)
			pad[i], padB[i] = nodes[i].Mem.Alloc(verbsPad)
			var err1, err2 error
			srcMR[i], err1 = hcas[i].RegisterMR(p, pd[i], src[i], verbsPad, acc)
			padMR[i], err2 = hcas[i].RegisterMR(p, pd[i], pad[i], verbsPad, acc)
			if err1 != nil || err2 != nil {
				setupErr = fmt.Errorf("verbs rung: register: %v %v", err1, err2)
				return
			}
		}
		// write sends message i from side s with sequence number i+1 in
		// the pad's last byte; await waits on side s's pad for the peer's
		// message i and checks it.
		write := func(q *des.Proc, s, i int) {
			fill(srcB[s][:smallMsg], key(seed, 0, s, i))
			srcB[s][verbsPad-1] = byte(i + 1)
			qp[s].PostSend(q, ib.SendWR{
				Op:         ib.OpRDMAWrite,
				SGL:        []ib.SGE{{Addr: src[s], Len: verbsPad, LKey: srcMR[s].LKey()}},
				RemoteAddr: pad[1-s], RKey: padMR[1-s].RKey(),
			})
		}
		await := func(q *des.Proc, s, i int) {
			seq := byte(i + 1)
			hcas[s].WaitMemory(q, func() bool { return padB[s][verbsPad-1] == seq })
			t.check(matches(padB[s][:smallMsg], key(seed, 0, 1-s, i)), "verbs rung: message %d to side %d corrupt", i, s)
		}
		eng.Spawn("r1", func(q *des.Proc) {
			for i := 0; i <= iters; i++ {
				await(q, 1, i)
				write(q, 1, i)
			}
		})
		pingpong := func(i int) {
			sp := tr.begin("ib.post_wait", parent, p.Now(), true)
			write(p, 0, i)
			await(p, 0, i)
			tr.end(sp, p.Now())
		}
		pingpong(0) // warm-up
		t0, h0 := p.Now(), time.Now()
		for i := 1; i <= iters; i++ {
			pingpong(i)
		}
		out.hostNs = float64(time.Since(h0).Nanoseconds()) / float64(iters)
		out.oneWayUs = oneWay(p.Now()-t0, iters)
	})
	eng.Run()
	out.events, out.fp = eng.EventsExecuted(), eng.TraceFingerprint()
	return out, setupErr
}

// channelRung is the RDMA Channel rung: a zero-copy-design connection
// (rdmachan.NewConnection) carrying 4 B messages through PutAll/GetAll.
func channelRung(seed uint64, iters int, tr *tracer, parent int, t *tally) (rung, error) {
	eng, nodes, hcas := twoNodes()
	defer eng.Shutdown()
	var eps [2]rdmachan.Endpoint
	var err error
	eng.Spawn("setup", func(p *des.Proc) {
		eps[0], eps[1], err = rdmachan.NewConnection(p, rdmachan.Config{Design: rdmachan.DesignZeroCopy}, hcas[0], hcas[1])
	})
	eng.Run()
	if err != nil {
		return rung{}, fmt.Errorf("channel rung: %w", err)
	}
	var bufs [2]rdmachan.Buffer
	var bytes [2][]byte
	for i := range nodes {
		va, b := nodes[i].Mem.Alloc(smallMsg)
		bufs[i], bytes[i] = rdmachan.Buffer{Addr: va, Len: smallMsg}, b
	}
	var out rung
	var opErr error
	send := func(p *des.Proc, s, i int) {
		fill(bytes[s], key(seed, 1, s, i))
		sp := tr.begin("rdmachan.PutAll", parent, p.Now(), true)
		if e := rdmachan.PutAll(p, eps[s], []rdmachan.Buffer{bufs[s]}); e != nil && opErr == nil {
			opErr = e
		}
		tr.end(sp, p.Now())
	}
	recv := func(p *des.Proc, s, i int) {
		sp := tr.begin("rdmachan.GetAll", parent, p.Now(), true)
		if e := rdmachan.GetAll(p, eps[s], []rdmachan.Buffer{bufs[s]}); e != nil && opErr == nil {
			opErr = e
		}
		tr.end(sp, p.Now())
		t.check(matches(bytes[s], key(seed, 1, 1-s, i)), "channel rung: message %d to side %d corrupt", i, s)
	}
	eng.Spawn("r1", func(p *des.Proc) {
		for i := 0; i <= iters; i++ {
			recv(p, 1, i)
			send(p, 1, i)
		}
	})
	eng.Spawn("r0", func(p *des.Proc) {
		send(p, 0, 0) // warm-up
		recv(p, 0, 0)
		t0, h0 := p.Now(), time.Now()
		for i := 1; i <= iters; i++ {
			send(p, 0, i)
			recv(p, 0, i)
		}
		out.hostNs = float64(time.Since(h0).Nanoseconds()) / float64(iters)
		out.oneWayUs = oneWay(p.Now()-t0, iters)
	})
	eng.Run()
	if opErr != nil {
		return rung{}, fmt.Errorf("channel rung: %w", opErr)
	}
	out.events, out.fp = eng.EventsExecuted(), eng.TraceFingerprint()
	return out, nil
}

// mpiLadder runs the MPI rung and the size ladder on a two-rank cluster:
// ping-pong at 4 B, 64 KiB and 1 MiB, then the windowed bandwidth test at
// 1 MiB. It records the sim metrics and the cluster's layer counters
// into r and returns the 4 B rung.
func mpiLadder(seed uint64, n ladderCounts, tr *tracer, parent int, t *tally, r *result) (rung, error) {
	c, err := newCluster(ladderConfig(), tr, parent, r)
	if err != nil {
		return rung{}, err
	}
	defer c.Close()
	c.Eng.EnableTrace()
	ev0 := c.Eng.EventsExecuted()

	var out rung
	var lat64k, lat1m, bw float64
	launch := tr.begin("Cluster.Launch", parent, c.Now(), true)
	c.Launch(func(comm *mpi.Comm) {
		me := comm.Rank()
		traced := func(name string, f func()) {
			if me != 0 {
				f()
				return
			}
			sp := tr.begin(name, launch, comm.Proc().Now(), true)
			f()
			tr.end(sp, comm.Proc().Now())
		}
		// pingpong runs iters+1 round trips of size bytes (the first is a
		// warm-up) and returns the simulated one-way latency and host
		// nanoseconds per round trip.
		pingpong := func(size, iters, tag int) (float64, float64) {
			sb, sbytes := comm.Alloc(size)
			rb, rbytes := comm.Alloc(size)
			var t0 des.Time
			var h0 time.Time
			for i := 0; i <= iters; i++ {
				if i == 1 {
					t0, h0 = comm.Proc().Now(), time.Now()
				}
				for turn := 0; turn < 2; turn++ {
					if turn == me {
						fill(sbytes, key(seed, 2, size, me, i))
						traced("Comm.Send", func() { comm.Send(sb, 1-me, tag) })
					} else {
						traced("Comm.Recv", func() { comm.Recv(rb, 1-me, tag) })
						t.check(matches(rbytes, key(seed, 2, size, 1-me, i)),
							"mpi: %d-byte message %d to rank %d corrupt", size, i, me)
					}
				}
			}
			return oneWay(comm.Proc().Now()-t0, iters), float64(time.Since(h0).Nanoseconds()) / float64(iters)
		}
		lat, hostNs := pingpong(smallMsg, n.rungIters, 0)
		l64k, _ := pingpong(mediumMsg, n.iters64k, 1)
		l1m, _ := pingpong(largeMsg, n.iters1m, 2)
		rate := bandwidth(comm, seed, n.windows, t)
		if me == 0 {
			out.oneWayUs, out.hostNs = lat, hostNs
			lat64k, lat1m, bw = l64k, l1m, rate
		}
	})
	tr.end(launch, c.Now())
	out.events = c.Eng.EventsExecuted() - ev0
	out.fp = c.Eng.TraceFingerprint()

	r.sim["lat_4b_us"] = out.oneWayUs
	r.sim["lat_64k_us"] = lat64k
	r.sim["lat_1m_us"] = lat1m
	r.sim["bw_1m_mbps"] = bw
	collectLayers(c, r)
	return out, nil
}

// bandwidth is bench.MPIBandwidth's window test at 1 MiB: a warm-up
// window, then `windows` windows of ladderWindow Isends each closed by a
// 4-byte ack. Each window slot has its own send and receive buffer so
// every message is checked; the warm-up window is a full one so that it
// registers every slot, as the producer's warm-up registers its single
// buffer. Returns MB/s on rank 0.
func bandwidth(comm *mpi.Comm, seed uint64, windows int, t *tally) float64 {
	me := comm.Rank()
	bufs := make([]mpi.Buffer, ladderWindow)
	data := make([][]byte, ladderWindow)
	for i := range bufs {
		bufs[i], data[i] = comm.Alloc(largeMsg)
	}
	ack, _ := comm.Alloc(4)
	window := func(k int) {
		reqs := make([]*mpi.Request, ladderWindow)
		for i := range reqs {
			if me == 0 {
				fill(data[i], key(seed, 3, k, i))
				reqs[i] = comm.Isend(bufs[i], 1, 1)
			} else {
				reqs[i] = comm.Irecv(bufs[i], 0, 1)
			}
		}
		comm.WaitAll(reqs...)
		if me == 0 {
			comm.Recv(ack, 1, 2)
			return
		}
		for i := range reqs {
			t.check(matches(data[i], key(seed, 3, k, i)), "mpi: window %d message %d corrupt", k, i)
		}
		comm.Send(ack, 0, 2)
	}
	window(0)
	start := comm.Wtime()
	for k := 1; k <= windows; k++ {
		window(k)
	}
	return float64(largeMsg*ladderWindow*windows) / ((comm.Wtime() - start) * 1e6)
}

var ladderWorkload = &workload{
	name:   "p2p-ladder",
	why:    "2 ranks, flat wire, one message in flight: per-message overhead at 4 B and byte copying at 1 MiB, down the verbs, channel and MPI rungs, with negligible DES queueing",
	guard:  ladderGuard,
	pass:   ladderPassMeasured,
	config: ladderConfig,
}

func ladderConfig() cluster.Config {
	return cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy}
}

func ladderPassMeasured(seed uint64, tr *tracer, t *tally) (*result, error) {
	return ladderPass(seed, measuredCounts, tr, t)
}

// ladderGuard runs the ladder at the figure producers' own iteration and
// window counts and checks it against them: the MPI rung and the window
// bandwidth against bench.Headline, the verbs rung against
// bench.VerbsLatency. The measured passes must then report the same values,
// up to the rounding of their longer averages.
func ladderGuard(seed uint64, t *tally) (map[string]string, error) {
	h := bench.Headline()
	wantLat, wantBW := h.Series[0].Points[0].Value, h.Series[1].Points[0].Value
	wantVerbs := bench.VerbsLatency(nil)

	v, err := verbsRung(seed, verbsIters, nil, -1, t)
	if err != nil {
		return nil, err
	}
	r, err := ladderPass(seed, producerCounts, nil, t)
	if err != nil {
		return nil, err
	}
	if got := v.oneWayUs; got != wantVerbs {
		return nil, fmt.Errorf("verbs rung one-way %v µs, bench.VerbsLatency %v µs", got, wantVerbs)
	}
	if got := r.sim["lat_4b_us"]; got != wantLat {
		return nil, fmt.Errorf("lat_4b_us %v µs, bench.Headline %v µs", got, wantLat)
	}
	if got := r.sim["bw_1m_mbps"]; got != wantBW {
		return nil, fmt.Errorf("bw_1m_mbps %v MB/s, bench.Headline %v MB/s", got, wantBW)
	}
	fmt.Printf("# cross-check: lat_4b_us %v = bench.Headline, bw_1m_mbps %v = bench.Headline, verbs one-way %v = bench.VerbsLatency\n",
		wantLat, wantBW, wantVerbs)
	return map[string]string{
		"lat_4b_us":  fmt.Sprint(wantLat),
		"bw_1m_mbps": fmt.Sprint(wantBW),
		"ib.rtt_us":  fmt.Sprint(2 * v.oneWayUs),
	}, nil
}
