package nas

import (
	"testing"

	"repro/internal/cluster"
)

// Class S smoke tests: every benchmark must verify on every figure
// transport at both node counts the paper uses.
func TestClassSAllBenchmarksAllTransports(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			nps := []int{4, 8}
			if SquareOnly(name) {
				nps = []int{4}
			}
			for _, np := range nps {
				for _, tr := range figureTransports {
					res := Run(name, ClassS, cluster.Config{NP: np, Transport: tr})
					if !res.Verified {
						t.Errorf("%s.S np=%d %v: verification failed", name, np, tr)
					}
					if res.Time <= 0 {
						t.Errorf("%s.S np=%d %v: nonpositive time %v", name, np, tr, res.Time)
					}
				}
			}
		})
	}
}

func TestClassSBasicTransportWorks(t *testing.T) {
	// Even the basic design, which the paper abandons, must run the suite
	// correctly (it is only slower). CG is the most communication-diverse
	// small case.
	res := Run("cg", ClassS, cluster.Config{NP: 4, Transport: cluster.TransportBasic})
	if !res.Verified {
		t.Fatal("cg.S on basic transport failed verification")
	}
}

func TestDeterministicRuntime(t *testing.T) {
	a := Run("mg", ClassS, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	b := Run("mg", ClassS, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	if a.Time != b.Time {
		t.Fatalf("nondeterministic runtime: %v vs %v", a.Time, b.Time)
	}
}

func TestGridFactorizations(t *testing.T) {
	cases := []struct{ np, rows, cols int }{
		{2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4},
	}
	for _, c := range cases {
		r, co := grid2(c.np)
		if r != c.rows || co != c.cols {
			t.Errorf("grid2(%d) = %d×%d, want %d×%d", c.np, r, co, c.rows, c.cols)
		}
	}
	px, py, pz := grid3(8)
	if px*py*pz != 8 || px != 2 || py != 2 || pz != 2 {
		t.Errorf("grid3(8) = %d,%d,%d", px, py, pz)
	}
	px, py, pz = grid3(4)
	if px*py*pz != 4 {
		t.Errorf("grid3(4) product = %d", px*py*pz)
	}
	if isqrt(4) != 2 || isqrt(8) != 0 || isqrt(16) != 4 {
		t.Error("isqrt broken")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Class
		ok   bool
	}{{"", 0, false}, {"X", 0, false}, {"S", ClassS, true}, {"A", ClassA, true}, {"B", ClassB, true}} {
		got, err := ParseClass(c.in)
		if got != c.want || (err == nil) != c.ok {
			t.Errorf("ParseClass(%q) = %q, %v; want %q, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestCheckNP(t *testing.T) {
	for _, c := range []struct {
		name string
		np   int
		ok   bool
	}{{"cg", 4, true}, {"cg", 3, false}, {"cg", 1, false}, {"", 8, true}, {"sp", 4, true}, {"bt", 9, true}, {"sp", 8, false}} {
		if err := CheckNP(c.name, c.np); (err == nil) != c.ok {
			t.Errorf("CheckNP(%q, %d) = %v, want ok=%v", c.name, c.np, err, c.ok)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	b := make([]byte, 256)
	fill(b, 42)
	c1 := checksum(b)
	b[100] ^= 1
	if checksum(b) == c1 {
		t.Fatal("checksum missed a single-bit flip")
	}
}

// TestTransportOrderingClassS: at smoke scale every message sits below
// the zero-copy threshold, so the two designs must essentially tie (the
// zero-copy design pays only its per-call bookkeeping, §5).
func TestTransportOrderingClassS(t *testing.T) {
	for _, name := range []string{"ft", "is", "mg"} {
		pipe := Run(name, ClassS, cluster.Config{NP: 4, Transport: cluster.TransportPipeline})
		zc := Run(name, ClassS, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
		ratio := pipe.Time / zc.Time
		// FT's class-S transpose blocks already clear the zero-copy
		// threshold, so pipelining may trail; it must never win by more
		// than the zero-copy design's bookkeeping overhead.
		if ratio < 0.97 {
			t.Errorf("%s.S: pipeline/zerocopy = %.3f; pipelining should not win", name, ratio)
		}
	}
}

// TestTransportOrderingClassA checks the paper's Figure 16 result on the
// most bandwidth-bound benchmark: at class A, pipelining is strictly worst
// and CH3 is within a whisker of the RDMA-Channel zero-copy design.
func TestTransportOrderingClassA(t *testing.T) {
	if testing.Short() {
		t.Skip("class A run skipped in -short")
	}
	pipe := Run("ft", ClassA, cluster.Config{NP: 4, Transport: cluster.TransportPipeline})
	zc := Run("ft", ClassA, cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	ch3 := Run("ft", ClassA, cluster.Config{NP: 4, Transport: cluster.TransportCH3})
	if !pipe.Verified || !zc.Verified || !ch3.Verified {
		t.Fatal("class A verification failed")
	}
	if pipe.Time <= zc.Time {
		t.Errorf("ft.A: pipelining (%v) should be slower than zero-copy (%v)", pipe.Time, zc.Time)
	}
	if r := ch3.Time / zc.Time; r < 0.90 || r > 1.02 {
		t.Errorf("ft.A: ch3/rdma = %.3f, paper: CH3 within ~1%% better", r)
	}
}

func TestRunFigureSmoke(t *testing.T) {
	fr := RunFigure("smoke", ClassS, 4)
	if len(fr.Rows) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(fr.Rows))
	}
	for _, r := range fr.Rows {
		if !r.Verified {
			t.Errorf("%s failed verification", r.Name)
		}
		for _, tr := range figureTransports {
			if r.Times[tr] <= 0 {
				t.Errorf("%s: missing time for %v", r.Name, tr)
			}
		}
	}
	if s := fr.Format(); len(s) == 0 {
		t.Error("empty format output")
	}
}

// TestClassSAllBenchmarksSMPLayouts: every kernel must verify when the
// same ranks are packed onto multi-core nodes — co-located pairs over
// shared memory, remote pairs over InfiniBand, collectives hierarchical.
func TestClassSAllBenchmarksSMPLayouts(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			np := 8
			if SquareOnly(name) {
				np = 4
			}
			for _, ppn := range []int{2, 4, np} {
				res := Run(name, ClassS, cluster.Config{
					NP:           np,
					CoresPerNode: ppn,
					Transport:    cluster.TransportZeroCopy,
				})
				if !res.Verified {
					t.Errorf("%s.S np=%d ppn=%d: verification failed", name, np, ppn)
				}
				if res.Time <= 0 {
					t.Errorf("%s.S np=%d ppn=%d: nonpositive time %v", name, np, ppn, res.Time)
				}
			}
		})
	}
}

func TestRunSMPSmoke(t *testing.T) {
	res := RunSMP(ClassS, 4, []int{1, 2, 4})
	if len(res.Rows) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.Verified {
			t.Errorf("%s failed verification on an SMP layout", r.Name)
		}
		for _, ppn := range res.PPNs {
			if r.Times[ppn] <= 0 {
				t.Errorf("%s: missing time for %d/node", r.Name, ppn)
			}
		}
	}
	if s := res.Format(); len(s) == 0 {
		t.Error("empty format output")
	}
}
