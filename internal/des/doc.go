// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel — the clock under every measurement this repository
// reports (the paper itself, conf_ipps_LiuJWPABGT04, measures wall-clock
// microseconds on real hardware; here simulated time stands in for them).
//
// Simulated processes are coroutines (iter.Pull), and the engine steps
// exactly one of them at a time: a process runs until it blocks on a kernel
// primitive (Sleep, Cond.Wait, Queue.Get, Resource.Acquire, ...), at which
// point control switches back to the engine, which advances the simulated
// clock to the next pending event.
//
// Layer boundaries: this package is the bottom of the stack. It knows
// nothing about InfiniBand, MPI or the cost model; internal/model prices
// operations in des.Time, internal/ib runs protocol state machines as des
// processes, and everything above inherits the clock. Nothing below it
// exists, and nothing in it may import a sibling package.
//
// Invariants:
//
//   - Determinism: ties in the event heap are broken by scheduling sequence
//     number, so a given program produces bit-for-bit identical simulated
//     timings on every run. This is what makes "output bit-identical to the
//     previous PR" a meaningful regression gate, and it is why nothing in a
//     simulation may branch on wall-clock time or map iteration order.
//   - Single-stepping: at most one simulated process executes at any
//     instant; predicates guarded by Cond need no locks.
//   - A process that blocks outside a kernel primitive deadlocks the
//     simulation; every wait must go through the kernel so the engine can
//     see it.
package des
