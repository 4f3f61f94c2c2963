package nas

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Class is an NPB problem class.
type Class byte

// Supported classes. S is a smoke-test size for unit tests; A and B are
// the paper's evaluation classes.
const (
	ClassS Class = 'S'
	ClassA Class = 'A'
	ClassB Class = 'B'
)

// ParseClass maps a class name ("S", "A" or "B") to its Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "S", "A", "B":
		return Class(s[0]), nil
	}
	return 0, fmt.Errorf("nas: unknown class %q (want S, A or B)", s)
}

// Result is one benchmark execution.
type Result struct {
	Name     string
	Class    Class
	NP       int
	Time     float64 // simulated seconds
	Mops     float64 // nominal Mop/s (NPB-style operation counts)
	Verified bool
}

func (r Result) String() string {
	v := "VERIFIED"
	if !r.Verified {
		v = "FAILED"
	}
	return fmt.Sprintf("%s.%c np=%d  time=%.3fs  %.1f Mop/s  %s",
		r.Name, r.Class, r.NP, r.Time, r.Mops, v)
}

// benchmark is one skeleton: it runs on every rank and returns, on rank 0,
// the nominal operation count and verification verdict (other ranks'
// returns are ignored).
type benchmark func(comm *mpi.Comm, class Class) (ops float64, ok bool)

var benchmarks = map[string]benchmark{
	"ep": runEP,
	"is": runIS,
	"cg": runCG,
	"mg": runMG,
	"ft": runFT,
	"lu": runLU,
	"sp": runSP,
	"bt": runBT,
}

// Names lists the benchmarks in the paper's figure order.
func Names() []string {
	return []string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}
}

// SquareOnly reports whether the benchmark requires a square process count
// (SP and BT, §7: "their results are only shown for 4 nodes").
func SquareOnly(name string) bool { return name == "sp" || name == "bt" }

// CheckNP validates a rank count against the benchmark's decomposition:
// SP and BT need a square process grid, every other kernel (and the
// whole-figure run, name "") a power of two ≥ 2. Other counts would panic
// deep in a kernel.
func CheckNP(name string, np int) error {
	if SquareOnly(name) {
		if isqrt(np) == 0 {
			return fmt.Errorf("nas: %s needs a square rank count, got %d", name, np)
		}
	} else if np < 2 || np&(np-1) != 0 {
		return fmt.Errorf("nas: rank count must be a power of two ≥ 2, got %d", np)
	}
	return nil
}

// Run executes one benchmark on a cluster configuration and returns the
// rank-0 result. Timing excludes setup: ranks synchronize with a barrier,
// then measure to a closing barrier, as NPB does.
func Run(name string, class Class, cfg cluster.Config) Result {
	if _, ok := benchmarks[name]; !ok {
		// Validate before paying for cluster construction.
		panic(fmt.Sprintf("nas: unknown benchmark %q (have %v)", name, sorted(benchmarks)))
	}
	c := cluster.MustNew(cfg)
	defer c.Close()
	return RunOn(c, name, class)
}

// RunOn executes one benchmark on an already-built cluster, which the
// caller keeps — the connection-scalability tests run a kernel and then
// read the cluster's MemStats.
func RunOn(c *cluster.Cluster, name string, class Class) Result {
	b, ok := benchmarks[name]
	if !ok {
		panic(fmt.Sprintf("nas: unknown benchmark %q (have %v)", name, sorted(benchmarks)))
	}
	res := Result{Name: name, Class: class, NP: c.Size()}
	c.Launch(func(comm *mpi.Comm) {
		comm.Barrier()
		start := comm.Wtime()
		ops, verified := b(comm, class)
		comm.Barrier()
		if comm.Rank() == 0 {
			res.Time = comm.Wtime() - start
			if res.Time > 0 {
				res.Mops = ops / res.Time / 1e6
			}
			res.Verified = verified
		}
	})
	return res
}

func sorted(m map[string]benchmark) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- shared helpers ---

// grid2 factors np into the NPB-style 2D grid (cols ≥ rows, powers of 2).
func grid2(np int) (rows, cols int) {
	rows, cols = 1, np
	for cols/2 >= rows*2 {
		rows *= 2
		cols /= 2
	}
	return rows, cols
}

// grid3 factors np into a 3D decomposition.
func grid3(np int) (px, py, pz int) {
	px, py, pz = 1, 1, 1
	dims := []*int{&px, &py, &pz}
	i := 0
	for np > 1 {
		*dims[i%3] *= 2
		np /= 2
		i++
	}
	return
}

// isqrt returns the integer square root for square process counts.
func isqrt(n int) int {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	return 0
}

// fill writes a deterministic pattern derived from seed.
func fill(b []byte, seed uint64) {
	x := seed*2862933555777941757 + 3037000493
	for i := range b {
		x = x*2862933555777941757 + 3037000493
		b[i] = byte(x >> 56)
	}
}

// checksum folds bytes into a weak checksum for payload verification.
func checksum(b []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// verifySum allreduces a local checksum and compares the global result on
// every rank: communication corruption on any link breaks it.
func verifySum(comm *mpi.Comm, local uint64) bool {
	s, sb := comm.Alloc(8)
	r, rb := comm.Alloc(8)
	mpi.PutInt64(sb, 0, int64(local))
	comm.Allreduce(s, r, mpi.Int64, mpi.Sum)
	want := mpi.GetInt64(rb, 0)
	// Re-reduce to confirm every rank computed the same global value.
	s2, s2b := comm.Alloc(8)
	r2, r2b := comm.Alloc(8)
	mpi.PutInt64(s2b, 0, want)
	comm.Allreduce(s2, r2, mpi.Int64, mpi.Max)
	return mpi.GetInt64(r2b, 0) == want
}
