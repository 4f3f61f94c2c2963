package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/switchfab"
)

// Collective algorithm sweeps: every registered algorithm of a collective
// measured on the same layout, one series per algorithm — the data behind
// the per-comm tuning table's choices (the registry lives in
// internal/mpi/algorithms.go; `mpich2ib-bench -coll ... -coll-alg ...`
// drives these from the command line).

// collAlgLayout is the sweep layout: the 4-node × 4-core cluster of the
// hierarchical-collective ablation, rooted at a mid-node rank for the
// same reason that ablation documents.
const (
	collAlgNP   = 16
	collAlgCPN  = 4
	collAlgRoot = 5
)

// collRunner returns the measured operation for one collective; buf is
// the CollectiveTime payload.
func collRunner(coll string, np, root int) func(comm *mpi.Comm, buf mpi.Buffer) {
	switch coll {
	case "bcast":
		return func(comm *mpi.Comm, buf mpi.Buffer) { comm.Bcast(buf, root) }
	case "reduce":
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			recv, _ := comm.Alloc(maxInt(buf.Len, 8))
			comm.Reduce(buf, recv, mpi.Byte, mpi.Sum, root)
		}
	case "allgather":
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			recv, _ := comm.Alloc(maxInt(buf.Len*np, 8))
			comm.Allgather(buf, recv)
		}
	case "allreduce":
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			recv, _ := comm.Alloc(maxInt(buf.Len, 1))
			comm.Allreduce(buf, mpi.Slice(recv, 0, buf.Len), mpi.Byte, mpi.Sum)
		}
	case "alltoall":
		// buf is the per-destination block, as in allgather's per-rank view.
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			n := maxInt(buf.Len, 1)
			send, _ := comm.Alloc(n * np)
			recv, _ := comm.Alloc(n * np)
			comm.Alltoall(send, recv)
		}
	case "barrier":
		return func(comm *mpi.Comm, buf mpi.Buffer) { comm.Barrier() }
	}
	panic(fmt.Sprintf("bench: unknown collective %q", coll))
}

// CollAlgSweep measures the named collective under each of its registered
// algorithms across the given sizes on an np-rank, cpn-cores-per-node
// zero-copy cluster. Every other field of the base tuning — algorithms
// forced for other collectives, the reduce cutoff — carries through to
// each series; a base algorithm forced for coll itself restricts the
// sweep to that one series.
func CollAlgSweep(coll string, np, cpn int, sizes []int, iters int, base mpi.Tuning) (Figure, error) {
	return CollAlgSweepNet(coll, np, cpn, nil, sizes, iters, base)
}

// CollAlgSweepNet is CollAlgSweep with the wires routed through a fat
// tree (nil sw = flat wire): the same registry sweep measured under
// uplink contention, the data the topology-keyed tuning defaults rest on.
func CollAlgSweepNet(coll string, np, cpn int, sw *switchfab.Config, sizes []int, iters int, base mpi.Tuning) (Figure, error) {
	algs := mpi.AlgorithmNames(coll) // panics on unknown coll; callers validate
	if alg := base.Forced(coll); alg != "" {
		if !slices.Contains(algs, alg) {
			return Figure{}, fmt.Errorf("bench: unknown %s algorithm %q (have %v)", coll, alg, algs)
		}
		algs = []string{alg}
	}
	if algs = applicableAlgs(coll, algs, np, cpn, sw); len(algs) == 0 {
		return Figure{}, fmt.Errorf("bench: %s/%s is inapplicable on %d ranks × %d per node",
			coll, base.Forced(coll), np, cpn)
	}
	f := Figure{
		ID: "coll-" + coll,
		Title: fmt.Sprintf("Collective algorithms: %s (%d ranks, %d per node, root %d, net %s)",
			coll, np, cpn, collRoot(np), netLabel(sw)),
		XLabel: "message size (bytes)", YLabel: "time per call (µs)",
	}
	for _, a := range algs {
		f.Series = append(f.Series, collAlgSeries(coll, a, np, cpn, sw, sizes, iters, base))
	}
	return f, nil
}

// applicableAlgs drops the algorithms the layout cannot run: a forced
// but inapplicable name would silently fall back to the flat algorithm
// and mislabel its series. One probe launch asks the world communicator.
func applicableAlgs(coll string, algs []string, np, cpn int, sw *switchfab.Config) []string {
	applicable := map[string]bool{}
	probe := cluster.MustNew(cluster.Config{NP: np, CoresPerNode: cpn,
		Transport: cluster.TransportZeroCopy, Switch: sw})
	probe.Launch(func(comm *mpi.Comm) {
		if comm.Rank() != 0 {
			return
		}
		for _, a := range algs {
			applicable[a] = comm.AlgorithmApplicable(coll, a)
		}
	})
	probe.Close()
	var kept []string
	for _, a := range algs {
		if applicable[a] {
			kept = append(kept, a)
		}
	}
	return kept
}

// collRoot is the sweep root, clamped into layouts smaller than the
// canonical one.
func collRoot(np int) int { return min(collAlgRoot, np-1) }

// collAlgSeries measures coll with alg forced over the base tuning.
func collAlgSeries(coll, alg string, np, cpn int, sw *switchfab.Config, sizes []int, iters int, base mpi.Tuning) Series {
	base.Force(coll, alg)
	o := Options{Transport: cluster.TransportZeroCopy, CoresPerNode: cpn, Tuning: &base, Switch: sw}
	s := CollectiveTime(o, np, sizes, iters, collRunner(coll, np, collRoot(np)))
	s.Name = coll + "/" + alg
	return s
}

// ParseNet maps a -net flag value to a switch configuration: "flat" (or
// empty) is the direct wire, "fattree-dD-uU" a two-level fat tree with
// D nodes per leaf and U uplinks per leaf.
func ParseNet(s string) (*switchfab.Config, error) {
	if s == "" || s == "flat" {
		return nil, nil
	}
	var d, u int
	if rest, ok := strings.CutPrefix(s, "fattree-d"); ok {
		if ds, us, ok := strings.Cut(rest, "-u"); ok {
			var err1, err2 error
			d, err1 = strconv.Atoi(ds)
			u, err2 = strconv.Atoi(us)
			if err1 == nil && err2 == nil && d > 0 && u > 0 {
				return &switchfab.Config{LeafDown: d, LeafUp: u}, nil
			}
		}
	}
	return nil, fmt.Errorf("bench: bad net %q (want flat or fattree-dD-uU, e.g. fattree-d4-u1)", s)
}

// netLabel is ParseNet's inverse.
func netLabel(sw *switchfab.Config) string {
	if sw == nil {
		return "flat"
	}
	return sw.Label()
}

// AblationCollAlg sweeps every registered bcast, reduce and allgather
// algorithm per message size on the 4-node × 4-core layout — the data the
// default tuning table is keyed on (the barrier algorithms have no size
// axis; sweep them with `mpich2ib-bench -coll barrier`).
func AblationCollAlg() Figure {
	sizes := sizesPow4(4, 16<<10)
	f := Figure{
		ID:     "ablation-coll-alg",
		Title:  "Collective algorithm registry sweep (4 nodes × 4 cores, root 5)",
		XLabel: "message size (bytes)", YLabel: "time per call (µs)",
	}
	for _, coll := range []string{"bcast", "reduce", "allgather"} {
		sub, err := CollAlgSweep(coll, collAlgNP, collAlgCPN, sizes, 5, mpi.DefaultTuning())
		if err != nil {
			panic(err)
		}
		f.Series = append(f.Series, sub.Series...)
	}
	return f
}
