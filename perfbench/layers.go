package main

import (
	"fmt"
	"time"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/shmchan"
	"repro/internal/transport"
)

// newCluster builds a cluster, timing cluster.New into r.setups.
func newCluster(cfg cluster.Config, tr *tracer, parent int, r *result) (*cluster.Cluster, error) {
	sp := tr.begin("cluster.New", parent, 0, true)
	start := time.Now()
	c, err := cluster.New(cfg)
	r.setups = append(r.setups, time.Since(start).Seconds())
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	tr.end(sp, c.Now())
	r.shards = max(r.shards, c.Shards())
	return c, nil
}

// collectLayers adds the cluster's exported counters to r.counts. It reads
// every layer from outside: the cluster's own summaries, each adapter's
// HCAStats, and each rank's endpoints through the transport engine.
func collectLayers(c *cluster.Cluster, r *result) {
	add := func(name string, v float64) { r.counts[name] += v }

	mem := c.MemStats()
	add("cluster.connections", float64(mem.Connections))
	add("cluster.qps", float64(mem.QPs))
	add("cluster.pinned_mb", float64(mem.PinnedBytes)/(1<<20))

	for _, rails := range c.Rails {
		for _, h := range rails {
			s := h.Stats()
			add("ib.bytes_injected", float64(s.BytesInjected))
			add("ib.bytes_delivered", float64(s.BytesDelivered))
			add("ib.mrs_registered", float64(s.MRsRegistered))
		}
	}

	rc := c.RegCacheStats()
	add("regcache.hits", float64(rc.Hits))
	add("regcache.lookups", float64(rc.Hits+rc.Misses))
	add("regcache.evictions", float64(rc.Evictions))

	sw := c.SwitchStats()
	add("switchfab.up_granules", float64(sw.UpGranules))
	add("switchfab.bytes_up", float64(sw.BytesUp))
	add("switchfab.up_wait_us", sw.UpWaited.Micros())
	add("switchfab.down_wait_us", sw.DownWaited.Micros())
	if m := sw.MaxWait.Micros(); m > r.counts["switchfab.max_wait_us"] {
		r.counts["switchfab.max_wait_us"] = m
	}

	fs := c.FaultStats()
	add("fault.links_downed", float64(fs.LinksDowned))
	add("fault.redials", float64(fs.Redials))
	add("fault.recoveries", float64(fs.Recoveries))

	// Queue pairs are read where the endpoints hold them at the end of the
	// run; a pair a re-dial replaced is no longer reachable, so its error
	// completions are not in ib.err_completions.
	qp := func(q *ib.QP) {
		if q == nil {
			return
		}
		s := q.Stats()
		add("ib.qp_retries", float64(s.Retries))
		add("ib.err_completions", float64(s.ErrsCompleted))
	}
	pools := map[*rdmachan.SRQPool]bool{}
	for rank := range c.Devs {
		for _, pool := range c.SRQPools(rank) {
			pools[pool] = true
		}
		c.Devs[rank].Engine().ForEachEndpoint(func(_ int32, ep transport.Endpoint) {
			add("transport.connected_peers", 1)
			switch e := ep.(type) {
			case *ch3.Conn:
				cs := e.Stats()
				add("ch3.eager_sends", float64(cs.EagerSends))
				add("ch3.rndv_sends", float64(cs.RndvSends))
				add("ch3.reconnects", float64(cs.Reconnects))
				add("ch3.resends", float64(cs.Resends))
				rs := e.Endpoint().Stats()
				add("rdmachan.chunks_sent", float64(rs.ChunksSent))
				add("rdmachan.credit_writes", float64(rs.CreditWrites))
				add("rdmachan.zc_sends", float64(rs.ZCSends))
				add("rdmachan.rail_evictions", float64(rs.RailEvictions))
				add("rdmachan.chunk_reposts", float64(rs.ChunkReposts))
				add("rdmachan.stripe_reissues", float64(rs.StripeReissues))
				if raw, ok := e.Endpoint().(rdmachan.RawAccess); ok {
					for k := 0; k < raw.NRails(); k++ {
						qp(raw.RailQP(k))
					}
				}
			case *ch3.SRQConn:
				cs := e.Stats()
				add("ch3.eager_sends", float64(cs.EagerSends))
				add("ch3.rndv_sends", float64(cs.RndvSends))
				add("ch3.reconnects", float64(cs.Reconnects))
				add("ch3.resends", float64(cs.Resends))
				qp(e.QP())
			case *shmchan.Conn:
				ss := e.Stats()
				add("shmchan.eager_sends", float64(ss.EagerSends))
				add("shmchan.large_sends", float64(ss.LargeSends))
				add("shmchan.bytes", float64(ss.BytesSent))
			}
		})
	}
	for pool := range pools {
		ps := pool.Stats()
		add("rdmachan.srq_dispatches", float64(ps.Dispatches))
		add("rdmachan.srq_send_stalls", float64(ps.SendStalls))
		add("ib.srq_rnr_naks", float64(ps.RNRNaks))
	}
}
