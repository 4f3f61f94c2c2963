package ch3

import (
	"sort"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/transport"
)

// SRQConn is the SRQ-backed eager mode of the CH3 layer (DESIGN.md §9):
// the packet protocol of Conn — the same 64-byte headers, the same
// RTS/CTS/FIN rendezvous by RDMA write — but carried by two-sided IB sends
// into the process's shared receive pool (rdmachan.SRQPool) instead of a
// dedicated per-connection chunk ring.
//
// The differences from Conn follow from the shared pool:
//
//   - Inbound eager slots belong to the process, not the connection, so a
//     connection's memory is one queue pair — the footprint that makes
//     wide jobs affordable (and lazy connections worth establishing).
//   - There is no per-peer credit loop. Senders stall on the process's
//     staging pool, receivers refill the shared queue as they poll, and
//     the RNR limited-retry protocol (ib.QP.deliverSend) absorbs bursts
//     that outrun the refill.
//   - Packets are message-framed by the transport (one send per packet),
//     so there is no byte-pipe state machine; arrival dispatch comes from
//     the pool by receiving queue pair.
//
// It implements transport.Endpoint with an engine-level rendezvous
// threshold of one slot payload, exactly like the direct CH3 design.
type SRQConn struct {
	// The idle-check fields lead the struct so Poll's fast path — taken by
	// every connected-but-quiet peer every progress pass — reads a single
	// cache line per connection.
	//
	// sharedPoll and resilient cache pool properties, uniform across every
	// pool of a cluster, so the hot path avoids the method calls. ctrlq and
	// dataq are the send side: strict FIFO per queue; control packets (CTS,
	// FIN) win so rendezvous answers do not starve behind bulk eager
	// traffic. Eager and RTS packets share dataq, preserving MPI envelope
	// order.
	sharedPoll bool // pool.SharedProgress(): the engine polls the pool
	resilient  bool // pool.Resilient()
	ctrlq      []*srqOp
	dataq      []*srqOp

	pool  *rdmachan.SRQPool
	qp    *ib.QP
	h     transport.Handler
	onErr func(error)

	threshold int

	*rndv

	hdrScratch [hdrSize]byte

	// Fault recovery (resilient pools only; DESIGN.md §11). Every staged
	// packet is retained in unacked until its success completion; an error
	// completion means the packet definitively never landed, so after the
	// connection is re-dialed the retained packets are re-queued in their
	// original order — exactly-once, no duplicates. A rendezvous write
	// that fails restores its send in the core, so the transfer restarts
	// from the RTS. gotRTS suppresses duplicate announcements from a
	// recovering sender.
	unacked    []*srqOp
	staged     int // packets in flight on the current queue pair
	brokenFlag bool
	redialled  bool // a re-dial has been requested for this outage
	redial     func()
	nextPool   *rdmachan.SRQPool // set by Reconnect; adopted from Poll
	nextQP     *ib.QP
	gotRTS     map[uint64]bool

	stats Stats
}

// srqOp is one queued outbound packet.
type srqOp struct {
	hdr     header
	payload transport.Buffer  // eager payload; zero-length for control
	onDone  func(p *des.Proc) // runs when the packet is accepted (staged)
	onSent  func(p *des.Proc) // runs at the packet's completion (CQE)

	// Resilient mode: the assembled packet bytes, retained for resend (the
	// user buffer is reusable once onDone ran, so resends use this copy);
	// rekey marks a CTS advertised when the packet is built, on the pool
	// current then.
	pkt      []byte
	eagerLen int
	rekey    bool
}

// NewSRQPair wires one SRQ-mode connection between two ranks' pools: a
// queue pair per side, attached to its pool's shared receive queue and
// CQs, connected and bound for dispatch.
func NewSRQPair(pa, pb *rdmachan.SRQPool, ha, hb transport.Handler,
	onErrA, onErrB func(error)) (*SRQConn, *SRQConn, error) {
	qa, qb := pa.CreateQP(), pb.CreateQP()
	if err := ib.Connect(qa, qb); err != nil {
		return nil, nil, err
	}
	a := newSRQConn(pa, qa, ha, onErrA)
	b := newSRQConn(pb, qb, hb, onErrB)
	pa.Bind(qa, a)
	pb.Bind(qb, b)
	return a, b, nil
}

func newSRQConn(pool *rdmachan.SRQPool, qp *ib.QP, h transport.Handler,
	onErr func(error)) *SRQConn {
	c := &SRQConn{
		pool:       pool,
		qp:         qp,
		h:          h,
		onErr:      onErr,
		sharedPoll: pool.SharedProgress(),
		resilient:  pool.Resilient(),
		threshold:  pool.SlotSize() - hdrSize,
	}
	c.rndv = newRndv(c, srqRail{c}, h, onErr, &c.stats)
	if pool.Resilient() {
		c.gotRTS = make(map[uint64]bool)
	}
	return c
}

// srqRail presents an SRQ connection to the rendezvous core as a single
// rail: its queue pair and its current pool's pin-down cache. The rail
// never reads as dead — a failed write breaks the connection instead
// (lost), and recovery re-dials.
type srqRail struct{ c *SRQConn }

func (r srqRail) NRails() int                      { return 1 }
func (r srqRail) RailAlive(int) bool               { return true }
func (r srqRail) RailQP(int) *ib.QP                { return r.c.qp }
func (r srqRail) RailRegCache(int) *regcache.Cache { return r.c.pool.RegCache() }
func (r srqRail) StripeUnit() int                  { return r.c.threshold }
func (r srqRail) StripeCount(int) int              { return 1 }
func (r srqRail) Resilient() bool                  { return r.c.resilient }
func (r srqRail) EvictRail(int)                    {}

// SetRedial installs the connection's re-dial trigger (the cluster's lazy
// connection manager): called at most once per outage, when the connection
// is broken and has work to recover.
func (c *SRQConn) SetRedial(fn func()) { c.redial = fn }

// Reconnect hands the connection a replacement queue pair (already
// connected to the peer's replacement and bound on its pool, possibly on
// a different rail). The swap is deferred: the owning progress loop adopts
// the new pair once every packet staged on the old one has completed —
// success or flush error — so the retained-packet set is final.
func (c *SRQConn) Reconnect(pool *rdmachan.SRQPool, qp *ib.QP) {
	c.nextPool, c.nextQP = pool, qp
}

// broken reports whether the current queue pair can no longer send.
func (c *SRQConn) broken() bool {
	return c.brokenFlag || c.qp.State() == ib.QPError
}

// maybeRedial asks the cluster for a replacement connection, once per
// outage, and only when there is something to recover — either queued or
// retained traffic of our own, or rendezvous state a peer is waiting on.
func (c *SRQConn) maybeRedial() {
	if c.redialled || c.redial == nil || c.nextQP != nil {
		return
	}
	if len(c.ctrlq)+len(c.dataq)+len(c.unacked)+len(c.send)+
		len(c.recv)+len(c.writes) == 0 {
		return
	}
	c.redialled = true
	c.redial()
}

// adopt swaps in the re-dialed queue pair and re-queues retained packets,
// oldest first, ahead of anything queued during the outage; rendezvous
// sends whose RTS is neither queued nor retained are re-announced (their
// CTS advertised keys died with the old rail, so the peer answers the new
// RTS with fresh ones).
func (c *SRQConn) adopt(p *des.Proc) {
	c.pool, c.qp = c.nextPool, c.nextQP
	c.nextPool, c.nextQP = nil, nil
	c.brokenFlag, c.redialled = false, false
	c.stats.Reconnects++

	var ctrl, data []*srqOp
	for _, op := range c.unacked {
		op.onDone = nil // already ran when the packet was first accepted
		if op.hdr.kind == pktCTS || op.hdr.kind == pktFIN {
			ctrl = append(ctrl, op)
		} else {
			data = append(data, op)
		}
	}
	c.unacked = nil
	c.stats.Resends += uint64(len(ctrl) + len(data))
	c.ctrlq = append(ctrl, c.ctrlq...)
	c.dataq = append(data, c.dataq...)

	have := make(map[uint64]bool) // RTS packets only ever queue on dataq
	for _, op := range c.dataq {
		if op.hdr.kind == pktRTS {
			have[op.hdr.reqID] = true
		}
	}
	ids := make([]uint64, 0, len(c.send))
	for id := range c.send {
		if !have[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rs := c.send[id]
		c.dataq = append(c.dataq, &srqOp{hdr: header{kind: pktRTS, env: rs.env, reqID: id}})
	}
	c.flush(p)
}

// Pool returns the process pool this connection draws from.
func (c *SRQConn) Pool() *rdmachan.SRQPool { return c.pool }

// QP returns the connection's queue pair.
func (c *SRQConn) QP() *ib.QP { return c.qp }

// Stats returns packet counters.
func (c *SRQConn) Stats() Stats { return c.stats }

// Footprint reports the connection's dedicated memory: one queue pair and
// nothing else — eager buffering lives in the process pool.
func (c *SRQConn) Footprint() rdmachan.Footprint {
	return rdmachan.Footprint{QPs: 1}
}

// RendezvousThreshold implements transport.Endpoint: payloads that exceed
// one pool slot take the CH3 rendezvous.
func (c *SRQConn) RendezvousThreshold() int { return c.threshold }

// SendEager implements transport.Endpoint. onDone runs once the payload is
// staged into the process send pool (the local buffer is then reusable).
func (c *SRQConn) SendEager(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	c.stats.EagerSends++
	c.dataq = append(c.dataq, &srqOp{hdr: header{kind: pktEager, env: env},
		payload: payload, onDone: onDone})
	c.flush(p)
}

// queue implements carrier: an RTS joins the data queue (envelope order),
// CTS and FIN the control queue. A resilient connection advertises a CTS
// when it builds the packet (rekey), so a re-dial before the CTS goes out
// registers the buffer on the new pool; otherwise it advertises now. done
// runs at the packet's completion: a FIN's completion implies the payload
// before it landed, so the sender's buffer is then reusable.
func (c *SRQConn) queue(p *des.Proc, h header, done func(p *des.Proc)) {
	op := &srqOp{hdr: h, onSent: done}
	q := &c.ctrlq
	switch h.kind {
	case pktRTS:
		q = &c.dataq
	case pktCTS:
		if op.rekey = c.resilient; !op.rekey {
			if err := c.advertise(p, &op.hdr); err != nil {
				c.onErr(err)
				return
			}
		}
	}
	*q = append(*q, op)
	c.flush(p)
}

// signaled implements carrier: a resilient connection signals its
// rendezvous writes, since only a counted completion tells whether a write
// flushed by a failure landed; otherwise RC ordering behind the FIN does.
func (c *SRQConn) signaled() bool { return c.resilient }

// postWrite implements carrier, routing the completion through the pool.
func (c *SRQConn) postWrite(p *des.Proc, _ int, id uint64, idx int, wr ib.SendWR) {
	wr.WRID = c.pool.OnCQE(func(q *des.Proc, cqe ib.CQE) { c.complete(q, id, idx, cqe) })
	c.qp.PostSend(p, wr)
}

// lost implements carrier: the write's queue pair is gone; the core
// restored the send, and the re-dial re-announces it.
func (c *SRQConn) lost(error) { c.brokenFlag = true }

// flush stages queued packets into the process send pool until it runs out
// of slots, control packets first. It reports whether anything moved. On a
// broken resilient connection it stages nothing and instead triggers the
// re-dial (once per outage).
func (c *SRQConn) flush(p *des.Proc) bool {
	resilient := c.resilient
	if resilient && (c.broken() || c.nextQP != nil) {
		c.maybeRedial()
		return false
	}
	prog := false
	for {
		var q *[]*srqOp
		switch {
		case len(c.ctrlq) > 0:
			q = &c.ctrlq
		case len(c.dataq) > 0:
			q = &c.dataq
		default:
			return prog
		}
		op := (*q)[0]
		var ok bool
		var err error
		if resilient {
			if op.pkt == nil || op.rekey {
				if err = c.buildPkt(p, op); err != nil {
					c.onErr(err)
					return prog
				}
			}
			ok, err = c.pool.SendPkt(p, c.qp, op.pkt, op.eagerLen, c.ackFn(op), c.failFn(op))
		} else {
			encodeHeader(c.hdrScratch[:], op.hdr)
			ok, err = c.pool.Send(p, c.qp, c.hdrScratch[:], op.payload, op.onSent)
		}
		if err != nil {
			c.onErr(errf("srq send: %w", err))
			return prog
		}
		if !ok {
			return prog // staging pool exhausted; retried from Poll
		}
		if resilient {
			c.staged++
			c.unacked = append(c.unacked, op)
		}
		*q = (*q)[1:]
		prog = true
		if op.onDone != nil {
			op.onDone(p)
			op.onDone = nil
		}
	}
}

// buildPkt assembles (or, for a rekey CTS, reassembles) op's packet bytes.
// Eager payloads are resolved exactly once, before onDone frees the user
// buffer; resends reuse the retained copy.
func (c *SRQConn) buildPkt(p *des.Proc, op *srqOp) error {
	if op.rekey {
		if err := c.advertise(p, &op.hdr); err != nil {
			return err
		}
	}
	pkt := make([]byte, hdrSize, hdrSize+op.payload.Len)
	encodeHeader(pkt, op.hdr)
	if op.payload.Len > 0 {
		src, err := c.qp.HCA().Node().Mem.Resolve(op.payload.Addr, op.payload.Len)
		if err != nil {
			return errf("srq send: %w", err)
		}
		pkt = append(pkt, src...)
	}
	op.pkt = pkt
	op.eagerLen = op.payload.Len
	return nil
}

// ackFn returns op's success-completion callback: the packet landed in a
// peer pool slot, so it leaves the retained set for good.
func (c *SRQConn) ackFn(op *srqOp) func(p *des.Proc) {
	return func(p *des.Proc) {
		c.staged--
		for i, o := range c.unacked {
			if o == op {
				c.unacked = append(c.unacked[:i], c.unacked[i+1:]...)
				break
			}
		}
		if op.onSent != nil {
			op.onSent(p)
			op.onSent = nil
		}
	}
}

// failFn returns op's error-completion callback: the packet definitively
// never landed (flush or retry exhaustion). It stays in unacked for
// re-queueing after the re-dial.
func (c *SRQConn) failFn(op *srqOp) func(p *des.Proc) {
	return func(p *des.Proc) {
		c.staged--
		c.brokenFlag = true
	}
}

// HandleSRQPacket implements rdmachan.SRQDispatch: one packet arrived into
// a pool slot on this connection's queue pair. The slot is reusable as
// soon as this returns, so eager payloads copy out immediately.
func (c *SRQConn) HandleSRQPacket(p *des.Proc, pkt []byte) {
	h := decodeHeader(pkt[:hdrSize])
	switch h.kind {
	case pktEager:
		sink := c.h.ArriveEager(p, h.env)
		if h.env.Len > 0 {
			node := c.qp.HCA().Node()
			dst, err := node.Mem.Resolve(sink.Buf.Addr, h.env.Len)
			if err != nil {
				c.onErr(errf("srq eager sink: %w", err))
				return
			}
			copy(dst, pkt[hdrSize:hdrSize+h.env.Len])
			node.Bus.Memcpy(p, h.env.Len, h.env.Len)
		}
		if sink.Done != nil {
			sink.Done(p)
		}
	case pktRTS, pktCTS, pktFIN:
		if c.resilient && c.dedupe(p, h) {
			return
		}
		c.dispatch(p, h)
	default:
		c.onErr(errf("srq bad packet kind %d", h.kind))
	}
}

// dedupe filters a resilient connection's rendezvous packets, reporting
// whether it consumed h: a sender that recovered from a failure
// re-announces every rendezvous whose CTS answer it never acted on. The
// first announcement goes to the transport; a duplicate re-advertises the
// posted buffer with fresh keys — unless a CTS for it is already queued or
// retained, in which case recovery will (re)send that one. A FIN retires
// the announcement.
func (c *SRQConn) dedupe(p *des.Proc, h header) bool {
	switch h.kind {
	case pktCTS:
		return false
	case pktFIN:
		delete(c.gotRTS, h.reqID)
		return false
	}
	if !c.gotRTS[h.reqID] {
		c.gotRTS[h.reqID] = true
		return false
	}
	if c.recv[h.reqID] == nil {
		return true // the matching receive is not yet posted; Accept will answer
	}
	for _, q := range [][]*srqOp{c.ctrlq, c.unacked} {
		for _, op := range q {
			if op.hdr.kind == pktCTS && op.hdr.reqID == h.reqID {
				return true
			}
		}
	}
	c.queue(p, header{kind: pktCTS, reqID: h.reqID}, nil)
	return true
}

// Poll implements transport.Endpoint: advance the shared pool (which
// dispatches arrivals for every connection on it) and retry this
// connection's stalled sends. On a resilient connection this is also where
// recovery happens: a re-dialed queue pair is adopted once the old one's
// completions have fully drained (the pool poll above reaps them), and a
// broken connection with work pending asks the cluster for a re-dial.
func (c *SRQConn) Poll(p *des.Proc) bool {
	// When the pool is registered as shared progress work the transport
	// engine polled it at the top of this pass; an idle fault-free
	// connection then has nothing at all to do. This is the single hottest
	// call in wide runs — every rank polls every connected peer every pass.
	if c.sharedPoll && !c.resilient && len(c.ctrlq) == 0 && len(c.dataq) == 0 {
		return false
	}
	prog := false
	if !c.sharedPoll {
		prog = c.pool.Poll(p)
	}
	if c.resilient {
		// Adoption waits for the old queue pair's completions to fully
		// drain — staged packets AND signaled rendezvous writes. A large
		// write occupies the wire long past the outage, and its flush
		// completion lands in the old pool's CQ: switch pools before it
		// arrives and it is stranded there forever, the rendezvous with it.
		if c.nextQP != nil && c.staged == 0 && c.inflight == 0 {
			c.adopt(p)
			prog = true
		} else if c.broken() {
			c.maybeRedial()
		}
	}
	if c.flush(p) {
		prog = true
	}
	return prog
}
