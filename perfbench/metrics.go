package main

// metric is one reported number. layer names the module it measures;
// moves names the end-to-end metric it should move and on which workload,
// so a change that claims a gain can say in advance which numbers it
// expects to see move.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
	layer, moves       string
}

// endToEnd is measured by untraced runs and reported on every workload.
// The simulated results (simResults) are workload-specific and repeat bit
// for bit, so they are reported with the per-layer metrics and held exact
// by the determinism checks instead of by a bound.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, layer: "all",
		moves: "host seconds of one measured pass, from cluster built to last rank returned (median of the run's passes)"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, layer: "cluster",
		moves: "host seconds inside cluster.New for the workload's clusters (median of every set-up in the run)"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25, layer: "runtime",
		moves: "peak resident memory of the benchmark process"},
}

// simResults are the exact simulated results — the paper's ladder, NAS,
// collectives and failover — plus the failure ratio. Every run prints them
// by name and unit; a workload that does not measure one reports 0.
var simResults = []metric{
	{"lat_4b_us", "sim_us", "lower", 0, "mpi", "one-way MPI latency at 4 B (paper 7.6) -> p2p-ladder"},
	{"lat_64k_us", "sim_us", "lower", 0, "mpi", "one-way latency at 64 KiB, zero-copy rendezvous -> p2p-ladder"},
	{"bw_1m_mbps", "sim_MB/s", "higher", 0, "mpi", "window bandwidth at 1 MiB (paper 857) -> p2p-ladder"},
	{"nas_sim_s", "sim_s", "lower", 0, "nas", "CG time between NPB's opening and closing barriers -> nas-cg, cg-railloss"},
	{"allreduce_256b_us", "sim_us", "lower", 0, "mpi", "median time per 256 B allreduce, rank 0 -> coll-fattree"},
	{"allreduce_256b_tail_us", "sim_us", "lower", 0, "mpi", "highest percentile of 256 B allreduce with >= 10 calls beyond it -> coll-fattree"},
	{"allreduce_64k_us", "sim_us", "lower", 0, "mpi", "median time per 64 KiB allreduce -> coll-fattree"},
	{"alltoall_1k_us", "sim_us", "lower", 0, "mpi", "median time per 1 KiB-per-peer alltoall -> coll-fattree"},
	{"recovery_us", "sim_us", "lower", 0, "fault", "mean recovery time per re-dial -> cg-railloss"},
	{"fail_frac", "ratio", "lower", 0, "all", "failed / attempted checked operations -> all"},
}

// perLayer is reported by traced runs: simResults, then each layer's
// counters and timings. A counter a workload does not exercise reads 0.
var perLayer = append(append([]metric(nil), simResults...), []metric{
	{"des.events", "count", "lower", 0, "des", "wall_s -> nas-cg (serial kernel), coll-fattree (sharded)"},
	{"des.host_ns_per_event", "ns", "lower", 0, "des", "wall_s -> nas-cg, coll-fattree"},
	{"cluster.connections", "count", "lower", 0, "cluster", "setup_s -> coll-fattree; peak_rss_mb -> nas-cg"},
	{"cluster.qps", "count", "lower", 0, "cluster", "setup_s -> coll-fattree; peak_rss_mb -> nas-cg"},
	{"cluster.pinned_mb", "MiB", "lower", 0, "cluster", "setup_s -> coll-fattree; peak_rss_mb -> nas-cg"},
	{"transport.connected_peers", "count", "lower", 0, "transport", "wall_s, nas_sim_s -> nas-cg"},
	{"ib.rtt_us", "sim_us", "lower", 0, "ib", "lat_4b_us -> p2p-ladder"},
	{"ib.host_ns_per_rtt", "ns", "lower", 0, "ib", "wall_s -> p2p-ladder"},
	{"ib.bytes_injected", "bytes", "lower", 0, "ib", "bw_1m_mbps, lat_64k_us -> p2p-ladder"},
	{"ib.bytes_delivered", "bytes", "lower", 0, "ib", "bw_1m_mbps, lat_64k_us -> p2p-ladder (includes RDMA-read responses)"},
	{"ib.mrs_registered", "count", "lower", 0, "ib", "bw_1m_mbps, lat_64k_us -> p2p-ladder"},
	{"ib.srq_rnr_naks", "count", "lower", 0, "ib", "nas_sim_s -> nas-cg"},
	{"ib.qp_retries", "count", "lower", 0, "ib", "recovery_us -> cg-railloss"},
	{"ib.err_completions", "count", "lower", 0, "ib", "recovery_us -> cg-railloss"},
	{"rdmachan.rtt_us", "sim_us", "lower", 0, "rdmachan", "lat_4b_us -> p2p-ladder"},
	{"rdmachan.host_ns_per_rtt", "ns", "lower", 0, "rdmachan", "wall_s -> p2p-ladder"},
	{"rdmachan.chunks_sent", "count", "lower", 0, "rdmachan", "lat_64k_us, bw_1m_mbps -> p2p-ladder"},
	{"rdmachan.credit_writes", "count", "lower", 0, "rdmachan", "lat_64k_us, bw_1m_mbps -> p2p-ladder"},
	{"rdmachan.zc_sends", "count", "lower", 0, "rdmachan", "lat_64k_us, bw_1m_mbps -> p2p-ladder"},
	{"rdmachan.srq_dispatches", "count", "lower", 0, "rdmachan", "nas_sim_s, wall_s -> nas-cg"},
	{"rdmachan.srq_send_stalls", "count", "lower", 0, "rdmachan", "nas_sim_s, wall_s -> nas-cg"},
	{"rdmachan.rail_evictions", "count", "lower", 0, "rdmachan", "recovery_us -> cg-railloss"},
	{"rdmachan.chunk_reposts", "count", "lower", 0, "rdmachan", "recovery_us -> cg-railloss"},
	{"rdmachan.stripe_reissues", "count", "lower", 0, "rdmachan", "recovery_us -> cg-railloss"},
	{"regcache.hit_ratio", "ratio", "higher", 0, "regcache", "lat_64k_us, bw_1m_mbps -> p2p-ladder"},
	{"regcache.lookups", "count", "lower", 0, "regcache", "base of regcache.hit_ratio"},
	{"regcache.evictions", "count", "lower", 0, "regcache", "lat_64k_us, bw_1m_mbps -> p2p-ladder"},
	{"shmchan.eager_sends", "count", "lower", 0, "shmchan", "nas_sim_s -> cg-railloss"},
	{"shmchan.large_sends", "count", "lower", 0, "shmchan", "nas_sim_s -> cg-railloss"},
	{"shmchan.bytes", "bytes", "lower", 0, "shmchan", "nas_sim_s -> cg-railloss"},
	{"ch3.eager_sends", "count", "lower", 0, "ch3", "lat_64k_us -> p2p-ladder; alltoall_1k_us -> coll-fattree"},
	{"ch3.rndv_sends", "count", "lower", 0, "ch3", "lat_64k_us -> p2p-ladder; alltoall_1k_us -> coll-fattree"},
	{"ch3.reconnects", "count", "lower", 0, "ch3", "recovery_us -> cg-railloss"},
	{"ch3.resends", "count", "lower", 0, "ch3", "recovery_us -> cg-railloss"},
	{"mpi.rtt_us", "sim_us", "lower", 0, "mpi", "lat_4b_us -> p2p-ladder"},
	{"mpi.host_ns_per_rtt", "ns", "lower", 0, "mpi", "wall_s -> p2p-ladder"},
	{"mpi.allreduce_256b_host_ms", "ms", "lower", 0, "mpi", "wall_s -> coll-fattree"},
	{"mpi.allreduce_64k_host_ms", "ms", "lower", 0, "mpi", "wall_s -> coll-fattree"},
	{"mpi.alltoall_1k_host_ms", "ms", "lower", 0, "mpi", "wall_s -> coll-fattree"},
	{"mpi.rdma_direct_calls", "count", "higher", 0, "mpi", "allreduce_*_us -> coll-fattree"},
	{"switchfab.up_granules", "count", "lower", 0, "switchfab", "allreduce_64k_us, alltoall_1k_us -> coll-fattree"},
	{"switchfab.bytes_up", "bytes", "lower", 0, "switchfab", "allreduce_64k_us, alltoall_1k_us -> coll-fattree"},
	{"switchfab.up_wait_us", "sim_us", "lower", 0, "switchfab", "allreduce_64k_us, alltoall_1k_us -> coll-fattree"},
	{"switchfab.down_wait_us", "sim_us", "lower", 0, "switchfab", "allreduce_64k_us, alltoall_1k_us -> coll-fattree"},
	{"switchfab.max_wait_us", "sim_us", "lower", 0, "switchfab", "allreduce_64k_us, alltoall_1k_us -> coll-fattree"},
	{"fault.links_downed", "count", "lower", 0, "fault", "recovery_us -> cg-railloss"},
	{"fault.redials", "count", "lower", 0, "fault", "recovery_us -> cg-railloss"},
	{"fault.recoveries", "count", "lower", 0, "fault", "recovery_us -> cg-railloss"},
	{"runtime.alloc_mb", "MiB", "lower", 0, "runtime", "wall_s, peak_rss_mb -> all"},
	{"runtime.gc_cycles", "count", "lower", 0, "runtime", "wall_s, peak_rss_mb -> all"},
	{"trace.wall_s", "s", "lower", 0, "benchmark", "median wall of the run's traced passes"},
	{"trace.overhead_frac", "ratio", "lower", 0, "benchmark", "traced / untraced pass wall - 1, same run"},
	{"trace.spans", "count", "lower", 0, "benchmark", "spans recorded by the run's traced passes"},
}...)
