package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func engRun(np, shards int, events uint64, fp string, wallPerSim float64) EngineRun {
	return EngineRun{
		Bench: "cg", Class: "S", NP: np, Queue: "calendar", Shards: shards,
		Events: events, Fingerprint: fp, SimSeconds: 0.01, Verified: true,
		WallPerSimSec: wallPerSim,
	}
}

// TestCompareEngineMissingRow pins the gate against silent admission: a
// measured np/shards combination absent from the baseline must fail the
// comparison, and the error must carry the measured row so the maintainer
// can regenerate the baseline deliberately.
func TestCompareEngineMissingRow(t *testing.T) {
	base := &Report[EngineRun]{Schema: EngineSchema,
		Runs: []EngineRun{engRun(64, 1, 1000, "aaaa", 100)}}
	cur := &Report[EngineRun]{Schema: EngineSchema, Runs: []EngineRun{
		engRun(64, 1, 1000, "aaaa", 100),
		engRun(64, 4, 1000, "aaaa", 100), // sharded row nothing has vetted
	}}
	errs := CompareReports(base, cur)
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want exactly 1 (the missing row): %v", len(errs), errs)
	}
	msg := errs[0].Error()
	for _, want := range []string{"shards=4", "missing from baseline", "events=1000", "fp=aaaa"} {
		if !strings.Contains(msg, want) {
			t.Errorf("missing-row error lacks %q: %s", want, msg)
		}
	}
}

func railsRun(rails int, mbps, wall float64) RailsRun {
	return RailsRun{Rails: rails, Policy: "round-robin", WallSeconds: wall,
		Points: []RailsPoint{{Size: 4096, MBps: 500}, {Size: 16384, MBps: mbps}}}
}

func collRun(alg string, us, wall float64) CollRun {
	return CollRun{Coll: "allreduce", Alg: alg, Net: "flat", NP: 16, CPN: 1, WallSeconds: wall,
		Points: []CollPoint{{Size: 256, Us: us}, {Size: 1024, Us: 76.1}}}
}

// contractCase is one baseline family under the shared gate contract:
// each row is compared against a baseline holding only base.
type contractCase[R Row] struct {
	base     R
	diverged R      // one exact field changed
	item     string // what the divergence error must name
	slower   R      // wall metric past the family tolerance
	faster   R      // wall metric improved
	other    R      // a key absent from the baseline
}

func (c contractCase[R]) run(t *testing.T) {
	rep := func(rows ...R) *Report[R] {
		r := NewReport[R]()
		r.Runs = rows
		return r
	}
	check := func(what string, errs []error, want ...string) {
		t.Helper()
		if len(errs) != len(want) {
			t.Errorf("%s: got %v, want %d errors", what, errs, len(want))
			return
		}
		for i, w := range want {
			if !strings.Contains(errs[i].Error(), w) {
				t.Errorf("%s: error %q lacks %q", what, errs[i], w)
			}
		}
	}
	base := rep(c.base)
	check("identical report", CompareReports(base, rep(c.base)))
	check("simulated divergence", CompareReports(base, rep(c.diverged)), c.item)
	check("wall regression beyond tolerance", CompareReports(base, rep(c.slower)), "regressed")
	check("faster run", CompareReports(base, rep(c.faster)))
	check("unvetted row", CompareReports(base, rep(c.base, c.other)), "missing from baseline")
	check("disjoint report", CompareReports(base, rep(c.other)),
		"missing from baseline", "no current row matches")
}

// TestCompareContract holds every baseline family to the same gate: exact
// simulated matching, wall within the family tolerance, no silent
// admission of unvetted rows, and the no-overlap guard.
func TestCompareContract(t *testing.T) {
	t.Run("engine", contractCase[EngineRun]{
		base:     engRun(64, 0, 1000, "aaaa", 100), // pre-shard row: aliases shards=1
		diverged: engRun(64, 1, 1001, "aaaa", 100),
		item:     "events=1001",
		slower:   engRun(64, 1, 1000, "aaaa", 100*(1+EngineTolerance+0.05)),
		faster:   engRun(64, 1, 1000, "aaaa", 50),
		other:    engRun(256, 1, 2000, "bbbb", 100),
	}.run)
	t.Run("rails", contractCase[RailsRun]{
		base:     railsRun(2, 700, 1),
		diverged: railsRun(2, 699, 1),
		item:     "size=16384",
		slower:   railsRun(2, 700, 1+RailsTolerance+0.05),
		faster:   railsRun(2, 700, 0.5),
		other:    railsRun(8, 700, 1),
	}.run)
	t.Run("coll", contractCase[CollRun]{
		base:     collRun("rabenseifner", 40, 1),
		diverged: collRun("rabenseifner", 41, 1),
		item:     "size=256",
		slower:   collRun("rabenseifner", 40, 1+CollTolerance+0.05),
		faster:   collRun("rabenseifner", 40, 0.5),
		other:    collRun("pairwise", 40, 1),
	}.run)
}

// roundTrip reads a committed baseline through ReadReport and writes it
// back with WriteReport; the bytes must not change, which pins the format
// every reader of these files relies on.
func roundTrip[R Row](t *testing.T, path string) {
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport[R](path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := WriteReport(out, rep); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Errorf("%s does not round-trip through ReadReport/WriteReport", path)
	}
}

func TestBaselinesRoundTrip(t *testing.T) {
	roundTrip[EngineRun](t, "../../BENCH_engine.json")
	roundTrip[RailsRun](t, "../../BENCH_rails.json")
	roundTrip[CollRun](t, "../../BENCH_coll.json")
}
