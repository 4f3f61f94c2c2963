package bench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

// ParseRails parses a comma list of rail counts, e.g. "1,2,4".
func ParseRails(list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 || n > rdmachan.MaxRails {
			return nil, fmt.Errorf("bench: bad rail count %q (1..%d)", tok, rdmachan.MaxRails)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty rail-count list")
	}
	return out, nil
}

// DefaultRailCounts is the published rail sweep.
func DefaultRailCounts() []int { return []int{1, 2, 4} }

// Multi-rail figures (DESIGN.md §10). The paper's bandwidth ceiling is one
// PCI-X-bound adapter per node (870 MB/s sustained, §6); these figures
// measure what striping the zero-copy design over N such adapters buys,
// where the ceiling moves to the node's shared memory bandwidth.

// RailBandwidth is the bandwidth-vs-rails figure: the zero-copy design's
// streaming bandwidth, one series per rail count, with eager chunks on the
// given policy and large messages striped across all rails. It is rendered
// from the BENCH_rails.json records (railsjson.go), so the
// printed table and a committed baseline can never drift apart.
func RailBandwidth(railCounts []int, policy rdmachan.RailPolicy) Figure {
	return RailsFigure(MeasureRails(railCounts, policy))
}

// AblationRailStripe is the striping-threshold ablation: at rails=2, the
// size below which a zero-copy transfer should stay on one rail. Striping
// pays per-rail registration (first touch) and a second read turnaround;
// the sweep shows where the overlap wins.
func AblationRailStripe() Figure {
	f := Figure{
		ID: "ablation-rail-stripe", Title: "Striping threshold (rails=2, zero-copy design)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	sizes := sizesPow4(16<<10, 4<<20)
	for _, th := range []struct {
		name string
		val  int
	}{
		{"stripe-all", 0},
		{"stripe>=128K", 128 << 10},
		{"stripe>=512K", 512 << 10},
		{"no-striping", -1},
	} {
		o := Options{Transport: cluster.TransportZeroCopy, RailsPerNode: 2}
		o.Chan.StripeThreshold = th.val
		s := MPIBandwidth(o, sizes)
		s.Name = th.name
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"below the threshold a transfer uses rail 0 alone; the registration cache amortizes per-rail pinning after first touch")
	return f
}

// RailPolicyFigure compares the eager rail policies at rails=2 on the
// streaming bandwidth test (mid-size messages, where the eager ring
// carries the traffic).
func RailPolicyFigure() Figure {
	f := Figure{
		ID: "rails-policy", Title: "Eager rail policy (rails=2, zero-copy design)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	sizes := sizesPow4(1<<10, 16<<10)
	for _, pol := range []rdmachan.RailPolicy{
		rdmachan.RailRoundRobin, rdmachan.RailWeighted, rdmachan.RailFixed,
	} {
		o := Options{Transport: cluster.TransportZeroCopy, RailsPerNode: 2}
		o.Chan.RailPolicy = pol
		s := MPIBandwidth(o, sizes)
		s.Name = pol.String()
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes, "fixed pins rail 0: the single-rail baseline inside a 2-rail build")
	return f
}

// NASRailSweep runs NAS CG over rail counts — the application-level rail
// sweep (one series per transport is unnecessary: CG's transfers are the
// zero-copy design's bread and butter).
func NASRailSweep(class nas.Class, np int, railCounts []int, policy rdmachan.RailPolicy) Figure {
	f := Figure{
		ID: "nas-rails", Title: fmt.Sprintf("NAS CG class %c np=%d vs rails (zero-copy design)", class, np),
		XLabel: "rails", YLabel: "Mop/s",
	}
	s := Series{Name: "cg/zerocopy"}
	for _, rails := range railCounts {
		cfg := cluster.Config{NP: np, RailsPerNode: rails, Transport: cluster.TransportZeroCopy}
		cfg.Chan.RailPolicy = policy
		res := nas.Run("cg", class, cfg)
		if !res.Verified {
			f.Notes = append(f.Notes, fmt.Sprintf("rails=%d FAILED VERIFICATION", rails))
		}
		s.Points = append(s.Points, Point{Size: rails, Value: res.Mops})
	}
	f.Series = append(f.Series, s)
	return f
}
