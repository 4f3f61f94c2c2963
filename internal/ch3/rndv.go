package ch3

import (
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/regcache"
	"repro/internal/transport"
)

// rndv is the CH3 rendezvous protocol (Figure 12) — RTS → CTS → RDMA write
// → FIN — for both connection types. It owns the request ids, the send and
// receive rendezvous state and the in-flight payload writes; the
// connection carrying it (Conn over the chunk ring, SRQConn over the
// shared receive pool) only moves its packets and routes its write
// completions. Embedding *rndv gives a connection SendRendezvous and
// AcceptRendezvous; a nil *rndv (over-channel Conn) has no rendezvous.
type rndv struct {
	car   carrier
	rails railSet
	hnd   transport.Handler
	fail  func(error)
	count *Stats // the carrier's counters

	seq      uint64
	send     map[uint64]*rndvSend  // announced, waiting for the CTS
	recv     map[uint64]*rndvRecv  // accepted, waiting for the FIN
	writes   map[uint64]*rndvWrite // payload writes awaiting completions
	inflight int                   // signaled writes posted, not yet completed
}

// carrier is what the rendezvous core needs from the connection carrying
// it, beyond the rail view.
type carrier interface {
	transport.Endpoint

	// queue sends a rendezvous packet: an RTS behind earlier data, a CTS or
	// FIN ahead of it. A CTS header carries only the request id; the
	// carrier fills in the advertisement (advertise) when it builds the
	// packet. done, if set, runs once the carrier has sent the packet.
	queue(p *des.Proc, h header, done func(p *des.Proc))

	// signaled reports whether signaled write completions reach complete.
	// Without it a payload moves as one unsignaled write on rail 0 with
	// the FIN queued behind it, ordered by the queue pair.
	signaled() bool

	// postWrite posts wr as a signaled write on rail k, routing its
	// completion to complete(id, idx).
	postWrite(p *des.Proc, k int, id uint64, idx int, wr ib.SendWR)

	// lost reports a rendezvous send left with no surviving advertised
	// rail; the core has already restored it for a fresh RTS.
	lost(err error)
}

// railSet is the connection's rails as the rendezvous core sees them. The
// chunk ring's rdmachan.RawAccess is one; an SRQ connection is a single
// rail (srqRail).
type railSet interface {
	NRails() int
	RailAlive(k int) bool
	RailQP(k int) *ib.QP
	RailRegCache(k int) *regcache.Cache
	StripeUnit() int
	StripeCount(size int) int
	Resilient() bool
	EvictRail(k int)
}

type rndvSend struct {
	payload transport.Buffer
	onDone  func(p *des.Proc)
	env     transport.Envelope // for re-announcement after a re-dial
}

type rndvRecv struct {
	dst  transport.Buffer
	done func(p *des.Proc)
	regs []railMR // indexed by rail; zero = rail not advertised
}

// railMR is a registration and the pin-down cache it came from. An SRQ
// connection's rail changes cache when it re-dials onto another pool; a
// registration on the old one is abandoned with its adapter.
type railMR struct {
	mr    *ib.MR
	cache *regcache.Cache
}

// rndvWrite is one payload in flight by signaled RDMA writes: pending is
// the completion counter, one write per stripe spread round-robin over the
// advertised rails, and the FIN is queued only once it drains — an acked
// write is the only ordering that spans queue pairs. The layout and the
// receiver's advertisement are retained so a stripe whose rail dies can
// be re-written over a surviving advertised rail.
type rndvWrite struct {
	rs      *rndvSend
	pending int
	mrs     []*ib.MR // indexed by rail; nil = rail not registered
	raddr   uint64
	rkeys   [maxHdrRails]uint32
	parts   []writePart // indexed by the stripe index in the completion
}

// writePart is one stripe's layout and current rail.
type writePart struct {
	off, blk int
	rail     int
}

func newRndv(car carrier, rails railSet, h transport.Handler, onErr func(error), count *Stats) *rndv {
	return &rndv{
		car: car, rails: rails, hnd: h, fail: onErr, count: count,
		send:   make(map[uint64]*rndvSend),
		recv:   make(map[uint64]*rndvRecv),
		writes: make(map[uint64]*rndvWrite),
	}
}

// SendRendezvous implements transport.Endpoint: announce with RTS; the
// payload moves by RDMA write after the peer's CTS.
func (r *rndv) SendRendezvous(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	if r == nil {
		panic("ch3: SendRendezvous in over-channel mode")
	}
	r.count.RndvSends++
	r.seq++
	r.send[r.seq] = &rndvSend{payload: payload, onDone: onDone, env: env}
	r.car.queue(p, header{kind: pktRTS, env: env, reqID: r.seq}, nil)
}

// AcceptRendezvous implements transport.Endpoint: the receive matching an
// announced RTS is now posted; answer with a CTS advertising dst.
func (r *rndv) AcceptRendezvous(p *des.Proc, reqID uint64, dst transport.Buffer,
	done func(p *des.Proc)) {
	if r == nil {
		panic("ch3: AcceptRendezvous in over-channel mode")
	}
	r.recv[reqID] = &rndvRecv{dst: dst, done: done}
	r.count.RndvRecvs++
	r.car.queue(p, header{kind: pktCTS, reqID: reqID}, nil)
}

// advertise fills in a CTS: the receive buffer, registered through the
// pin-down cache on every rail the sender may write it over — each adapter
// validates its own keys — with one rkey per rail. A resilient connection
// advertises every surviving rail (zero rkeys for dead ones), so any
// stripe can move to any advertised rail mid-transfer; otherwise the
// striping threshold decides, exactly as in the zero-copy design. A rail
// keeps its registration across re-advertisements while its cache stays.
func (r *rndv) advertise(p *des.Proc, h *header) error {
	rr := r.recv[h.reqID]
	if rr == nil {
		return errf("CTS for vanished rendezvous %d", h.reqID)
	}
	n := r.rails.StripeCount(rr.dst.Len)
	if r.rails.Resilient() {
		n = r.rails.NRails()
	}
	if rr.regs == nil {
		rr.regs = make([]railMR, n)
	}
	h.nRails, h.raddr = byte(n), rr.dst.Addr
	live := 0
	for k := 0; k < n; k++ {
		if !r.rails.RailAlive(k) {
			continue
		}
		if cache := r.rails.RailRegCache(k); rr.regs[k].cache != cache {
			mr, _, err := cache.Register(p, rr.dst.Addr, rr.dst.Len)
			if err != nil {
				return errf("rendezvous register: %w", err)
			}
			rr.regs[k] = railMR{mr: mr, cache: cache}
		}
		h.rkeys[k] = rr.regs[k].mr.RKey()
		live++
	}
	if live == 0 {
		return errf("rendezvous accept: no surviving rail")
	}
	return nil
}

// dispatch handles an arrived RTS, CTS or FIN.
func (r *rndv) dispatch(p *des.Proc, h header) {
	switch h.kind {
	case pktRTS:
		r.hnd.ArriveRTS(p, h.env, r.car, h.reqID)
	case pktCTS:
		r.handleCTS(p, h)
	default:
		r.handleFIN(p, h)
	}
}

// handleCTS moves the payload into the advertised buffer. A stale CTS —
// a duplicate answer to a sender that re-announced after a re-dial — is
// dropped on a resilient connection: its transfer is already past the CTS.
func (r *rndv) handleCTS(p *des.Proc, h header) {
	rs, ok := r.send[h.reqID]
	if !ok {
		if !r.rails.Resilient() {
			r.fail(errf("CTS for unknown rendezvous %d", h.reqID))
		}
		return
	}
	delete(r.send, h.reqID)
	if r.car.signaled() {
		r.writeCounted(p, h, rs)
		return
	}
	// One unsignaled write with the FIN queued right behind it: RC
	// ordering on the one queue pair delivers them in order, and the
	// registration stays cached for the next send from this buffer.
	cache := r.rails.RailRegCache(0)
	mr, _, err := cache.Register(p, rs.payload.Addr, rs.payload.Len)
	if err != nil {
		r.fail(errf("rendezvous source register: %w", err))
		return
	}
	r.rails.RailQP(0).PostSend(p, ib.SendWR{
		Op:         ib.OpRDMAWrite,
		SGL:        []ib.SGE{{Addr: rs.payload.Addr, Len: rs.payload.Len, LKey: mr.LKey()}},
		RemoteAddr: h.raddr,
		RKey:       h.rkeys[0],
	})
	if err := cache.Release(p, mr); err != nil {
		r.fail(errf("rendezvous source release: %w", err))
		return
	}
	r.car.queue(p, header{kind: pktFIN, reqID: h.reqID}, rs.onDone)
}

// writeCounted registers the payload on every surviving advertised rail and
// writes it as signaled ChunkSize stripes round-robin over them — one write
// when a single rail survives or the payload is below the striping
// threshold. The FIN waits for the completion counter (complete): it must
// never ride the eager path concurrently with an unacknowledged write, as
// the ring rail-picks its chunks and a FIN on another rail would overtake
// the payload.
func (r *rndv) writeCounted(p *des.Proc, h header, rs *rndvSend) {
	n := int(h.nRails)
	if n > r.rails.NRails() {
		r.fail(errf("CTS advertises %d rails, connection has %d", n, r.rails.NRails()))
		return
	}
	var cands []int
	for k := 0; k < n; k++ {
		if h.rkeys[k] != 0 && r.rails.RailAlive(k) {
			cands = append(cands, k)
		}
	}
	if len(cands) == 0 {
		r.send[h.reqID] = rs
		r.car.lost(errf("rendezvous send: no surviving advertised rail"))
		return
	}
	w := &rndvWrite{rs: rs, raddr: h.raddr, rkeys: h.rkeys, mrs: make([]*ib.MR, r.rails.NRails())}
	for _, k := range cands {
		mr, _, err := r.rails.RailRegCache(k).Register(p, rs.payload.Addr, rs.payload.Len)
		if err != nil {
			r.fail(errf("rendezvous source register: %w", err))
			return
		}
		w.mrs[k] = mr
	}
	unit := rs.payload.Len
	if len(cands) > 1 && r.rails.StripeCount(unit) > 1 {
		unit = r.rails.StripeUnit()
	}
	r.writes[h.reqID] = w
	for off, i := 0, 0; off < rs.payload.Len; off, i = off+unit, i+1 {
		blk := rs.payload.Len - off
		if blk > unit {
			blk = unit
		}
		w.parts = append(w.parts, writePart{off: off, blk: blk, rail: cands[i%len(cands)]})
		r.postPart(p, h.reqID, w, i)
	}
	if r.rails.NRails() == 1 {
		// A one-rail connection has nowhere to re-write a stripe, so the
		// source registration goes back to the cache at once.
		r.releaseSource(p, w)
	}
}

// postPart posts (or re-posts) stripe idx on the rail its part names.
func (r *rndv) postPart(p *des.Proc, id uint64, w *rndvWrite, idx int) {
	pt := w.parts[idx]
	w.pending++
	r.inflight++
	r.car.postWrite(p, pt.rail, id, idx, ib.SendWR{
		Op: ib.OpRDMAWrite, Signaled: true,
		SGL: []ib.SGE{{
			Addr: w.rs.payload.Addr + uint64(pt.off), Len: pt.blk,
			LKey: w.mrs[pt.rail].LKey(),
		}},
		RemoteAddr: w.raddr + uint64(pt.off),
		RKey:       w.rkeys[pt.rail],
	})
}

// complete reaps one stripe's completion. A failed stripe definitively did
// not land (error completions rule delivery out): its rail is evicted and
// the block re-written over a surviving advertised rail, or — with none
// left — the send is restored for a fresh RTS and the carrier decides
// (re-dial or fail). When the counter drains, the registrations go back to
// their caches and the FIN is queued.
func (r *rndv) complete(p *des.Proc, id uint64, idx int, cqe ib.CQE) {
	r.inflight--
	w, ok := r.writes[id]
	if !ok {
		r.fail(errf("write completion for unknown rendezvous %d", id))
		return
	}
	w.pending--
	if cqe.Status != ib.StatusSuccess {
		pt := &w.parts[idx]
		r.rails.EvictRail(pt.rail)
		for k := 0; k < r.rails.NRails(); k++ {
			if k != pt.rail && w.rkeys[k] != 0 && w.mrs[k] != nil && r.rails.RailAlive(k) {
				pt.rail = k
				r.postPart(p, id, w, idx)
				return
			}
		}
		delete(r.writes, id)
		r.send[id] = w.rs
		r.car.lost(errf("no surviving rail for rendezvous stripe %d", idx))
		return
	}
	if w.pending > 0 {
		return
	}
	delete(r.writes, id)
	if !r.releaseSource(p, w) {
		return
	}
	r.car.queue(p, header{kind: pktFIN, reqID: id}, w.rs.onDone)
}

// releaseSource returns a write's source registrations to their caches.
func (r *rndv) releaseSource(p *des.Proc, w *rndvWrite) bool {
	for k, mr := range w.mrs {
		if mr == nil {
			continue
		}
		w.mrs[k] = nil
		if err := r.rails.RailRegCache(k).Release(p, mr); err != nil {
			r.fail(errf("rendezvous source release: %w", err))
			return false
		}
	}
	return true
}

// handleFIN completes a rendezvous receive: the payload is already in the
// user buffer (it preceded the FIN — by RC ordering on one queue pair, by
// counted completions across them).
func (r *rndv) handleFIN(p *des.Proc, h header) {
	rr, ok := r.recv[h.reqID]
	if !ok {
		r.fail(errf("FIN for unknown rendezvous %d", h.reqID))
		return
	}
	delete(r.recv, h.reqID)
	for k, g := range rr.regs {
		if g.mr == nil || g.cache != r.rails.RailRegCache(k) {
			continue
		}
		if err := g.cache.Release(p, g.mr); err != nil {
			r.fail(errf("rendezvous dest release: %w", err))
			return
		}
	}
	if rr.done != nil {
		rr.done(p)
	}
}
