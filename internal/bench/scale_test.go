package bench

import (
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/nas"
)

// The np=4096 scale proofs behind BENCH_engine.json: NAS CG and the
// stencil patterns at four thousand ranks, tractable on one core. The
// stencil sweep takes seconds but the CG row dispatches 785M events in
// ~30 minutes of single-core wall, so tier-1 runs skip them; set
// MPICH2IB_SCALE=1 (with `-timeout 45m` for the CG test) the way the
// baseline-regeneration workflow does to run them.
func requireScale(t *testing.T) {
	if os.Getenv("MPICH2IB_SCALE") == "" {
		t.Skip("np=4096 scale proof; set MPICH2IB_SCALE=1 to run")
	}
}

// TestScaleCG4096 runs NAS CG class S at np=4096 on the scalable stack
// (lazy connections, SRQ) — the configuration of the committed
// BENCH_engine.json row — and checks it verifies.
func TestScaleCG4096(t *testing.T) {
	requireScale(t)
	r := MeasureEngine("cg", nas.ClassS, 4096, 1, 1)
	if !r.Verified {
		t.Fatal("CG.S np=4096 failed verification")
	}
	t.Logf("np=4096 CG: events=%d wall=%.1fs ev/s=%.0f fp=%s",
		r.Events, r.WallSeconds, r.EventsPerSec, r.Fingerprint)
}

// TestScaleStencil4096 runs the footprint sweep's stencil patterns
// (nearest-neighbor chain and ring) at np=4096 under lazy connection
// management and checks the connection count stays proportional to the
// traffic pattern — a handful per rank — not the job size.
func TestScaleStencil4096(t *testing.T) {
	requireScale(t)
	const np = 4096
	for _, pat := range patterns() {
		if pat.name == "alltoall" {
			continue // the O(np²) mesh is exactly what this scale excludes
		}
		start := time.Now()
		c := footprintCluster(cluster.ConnectLazy, np)
		runPattern(c, pat)
		for _, r := range []int{0, 1, np / 2, np - 1} {
			if conns := c.RankMemStats(r).Connections; conns > 2 {
				t.Errorf("%s: rank %d holds %d connections, want ≤2", pat.name, r, conns)
			}
		}
		c.Close()
		t.Logf("np=4096 stencil %s: %.1fs", pat.name, time.Since(start).Seconds())
	}
}
