// Package ch3 models MPICH2's CH3 layer (§3.1 of conf_ipps_LiuJWPABGT04):
// the packet protocol between the transport abstraction
// (internal/transport) and the byte or packet carriers below. Every MPI
// message is a 64-byte header plus payload; large messages take the
// CH3-level InfiniBand rendezvous of Figure 12 — RTS → CTS → RDMA write
// into the receiver's registered user buffer → FIN.
//
// One rendezvous core (rndv.go) implements that protocol once: request
// ids, send and receive state, the CTS advertisement, the payload writes
// and their completions, the FIN. Two carriers move its packets and
// implement transport.Endpoint:
//
//   - Conn frames packets over an RDMA Channel byte pipe. Over-channel
//     mode (NewOverChannel) has no rendezvous at all — large messages are
//     the pipe's business, the zero-copy design handling them below the
//     five-function abstraction (§5). Direct mode (NewIBConn) carries the
//     core over the pipelined chunk ring, writing payloads on the ring's
//     raw rails (rdmachan.RawAccess, whose one consumer this is).
//   - SRQConn carries packets as two-sided sends into the process's
//     shared receive pool (DESIGN.md §9), a connection of one queue pair
//     on one rail; on a resilient pool it retains packets, re-dials a
//     broken connection and dedupes re-announced RTSs (DESIGN.md §11).
//
// The core reaches a carrier only through the carrier and railSet
// interfaces — queue a packet, post a routed signaled write, report a
// send with no surviving rail; rail count, liveness, queue pairs and
// pin-down caches — and never asks which carrier it serves.
//
// Layer boundaries: ch3 moves packets; it owns no matching logic. The
// transport engine above decides eager vs rendezvous and resolves
// envelopes to buffers; rdmachan/ib below move bytes.
//
// Invariants:
//
//   - One send state machine per connection: control packets (CTS, FIN)
//     win over data at message boundaries, so rendezvous answers never
//     starve behind bulk traffic — but a packet is never interleaved
//     mid-message. RTS and eager packets share one queue, preserving MPI
//     envelope order.
//   - RC ordering: where write completions do not reach the core (a
//     single-rail ring, whose completion hook belongs to one-sided windows
//     and RDMA-direct collectives, or a non-resilient SRQ connection), the
//     payload is one unsignaled write on rail 0 with the FIN queued behind
//     it on the same queue pair.
//   - Completion counter: otherwise the payload moves as signaled writes —
//     ChunkSize stripes round-robin over the advertised live rails — and
//     the FIN is queued only when every write has completed successfully,
//     because no ordering exists across queue pairs. A failed stripe is
//     re-written over a surviving advertised rail; with none left the
//     send is restored for a fresh RTS, which an SRQ connection re-dials
//     for and a ring connection reports as an error.
//   - The fixed 64-byte header carries up to four per-rail rkeys in a CTS,
//     so a packet's size, and its timing, is the same at any rail count.
package ch3
