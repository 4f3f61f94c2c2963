package ch3

import (
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// Conn is the CH3 packet engine over an RDMA Channel endpoint: the byte
// pipe framing of every packet, over-channel and direct modes alike (see
// the package comment). In direct mode it carries the rendezvous core. It
// implements transport.Endpoint.
type Conn struct {
	*rndv // nil in over-channel mode

	ep    rdmachan.Endpoint
	h     transport.Handler
	onErr func(error)

	threshold int // rendezvous switch; 0 = over-channel mode

	// Send side: strict FIFO per queue, control packets win at message
	// boundaries (rendezvous answers must not starve behind bulk data).
	ctrlq  []*conOp
	dataq  []*conOp
	active *conOp

	// kick records that a FIN was queued inside the current Poll pass —
	// from the CTS dispatch or the CQ drain, after the pass's send phase
	// ran — so the pass must report progress or the engine would sleep
	// with the FIN stranded in ctrlq.
	kick bool

	hdrPool []hdrSlot // free header staging slots

	// Receive state machine: header, then payload.
	rstate   int
	rhdrBuf  transport.Buffer
	rhdrMem  []byte
	rhdrRem  []transport.Buffer
	rsink    transport.Sink
	rpayload []transport.Buffer

	stats Stats
}

// Stats counts packet-engine activity.
type Stats struct {
	EagerSends uint64
	RndvSends  uint64
	RndvRecvs  uint64

	// Fault-recovery counters (resilient mode only).
	Reconnects uint64 // re-dialed queue pairs adopted
	Resends    uint64 // retained packets re-queued after a re-dial
}

type conOp struct {
	hdr    hdrSlot // staging slot; recycled when the op drains
	rem    []transport.Buffer
	onDone func(p *des.Proc)
}

// hdrSlot is a reusable 64-byte header staging buffer. Slots return to the
// pool once their packet is fully accepted by the pipe (Put reports bytes
// only after consuming them), so the pool stays as small as the op queue
// ever gets — a real implementation's preallocated packet pool.
type hdrSlot struct {
	va  uint64
	mem []byte
}

// wridStripeMark marks counted rendezvous write completions; bits 32..55
// carry the stripe index and the low bits the request id (request ids stay
// well below 2³² in any simulated run).
const (
	wridStripeMark    = uint64(0x3D) << 56
	wridStripeMask    = uint64(0xFF) << 56
	wridStripeIdxMask = uint64(0xFFFFFF) << 32
)

// NewOverChannel builds the packet engine in over-channel mode: every MPI
// message is framed eagerly through the endpoint's byte pipe, and large
// messages are the pipe's own business (the zero-copy design handles them
// below the abstraction). onErr receives any transport error (the
// simulation treats these as fatal protocol bugs).
func NewOverChannel(ep rdmachan.Endpoint, h transport.Handler, onErr func(error)) *Conn {
	return newConn(ep, h, 0, onErr)
}

// NewIBConn builds the packet engine in direct mode over a pipelined chunk
// endpoint created with rdmachan.DesignPipeline (zero-copy must be off:
// rendezvous is handled here, at the CH3 level). threshold is the
// eager/rendezvous switch, 0 meaning the default 32 KB (matching the
// zero-copy design).
func NewIBConn(ep rdmachan.Endpoint, h transport.Handler, threshold int, onErr func(error)) *Conn {
	raw, ok := ep.(rdmachan.RawAccess)
	if !ok {
		panic("ch3: IBConn requires a chunk-ring endpoint")
	}
	if threshold == 0 {
		threshold = 32 << 10
	}
	c := newConn(ep, h, threshold, onErr)
	c.rndv = newRndv(c, raw, h, onErr, &c.stats)
	if raw.NRails() > 1 {
		// Counted rendezvous writes complete on the rails' CQs, which the
		// channel endpoint drains; it routes completions it did not
		// generate here.
		raw.SetForeignCQE(c.writeCQE)
	}
	return c
}

func newConn(ep rdmachan.Endpoint, h transport.Handler, threshold int, onErr func(error)) *Conn {
	c := &Conn{ep: ep, h: h, onErr: onErr, threshold: threshold}
	mem := ep.HCA().Node().Mem
	va, b := mem.Alloc(hdrSize)
	c.rhdrBuf, c.rhdrMem = transport.Buffer{Addr: va, Len: hdrSize}, b
	c.rhdrRem = []transport.Buffer{c.rhdrBuf}
	return c
}

// Endpoint returns the underlying channel endpoint (for statistics and the
// one-sided extension's raw-verbs access).
func (c *Conn) Endpoint() rdmachan.Endpoint { return c.ep }

// Footprint reports the connection's dedicated memory — the channel
// endpoint's rings plus queue pair (the packet engine itself adds only
// header staging).
func (c *Conn) Footprint() transport.Footprint {
	if a, ok := c.ep.(interface{ Footprint() rdmachan.Footprint }); ok {
		return a.Footprint()
	}
	return transport.Footprint{QPs: 1}
}

// Stats returns packet-engine counters.
func (c *Conn) Stats() Stats { return c.stats }

// RendezvousThreshold implements transport.Endpoint.
func (c *Conn) RendezvousThreshold() int { return c.threshold }

// newHdrOp stages a packet in a pooled header slot.
func (c *Conn) newHdrOp(h header, payload *transport.Buffer, onDone func(p *des.Proc)) *conOp {
	var slot hdrSlot
	if n := len(c.hdrPool); n > 0 {
		slot = c.hdrPool[n-1]
		c.hdrPool = c.hdrPool[:n-1]
	} else {
		va, b := c.ep.HCA().Node().Mem.Alloc(hdrSize)
		slot = hdrSlot{va: va, mem: b}
	}
	encodeHeader(slot.mem, h)
	rem := []transport.Buffer{{Addr: slot.va, Len: hdrSize}}
	if payload != nil && payload.Len > 0 {
		rem = append(rem, *payload)
	}
	return &conOp{hdr: slot, rem: rem, onDone: onDone}
}

// SendEager implements transport.Endpoint.
func (c *Conn) SendEager(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	c.stats.EagerSends++
	op := c.newHdrOp(header{kind: pktEager, env: env}, &payload, onDone)
	c.dataq = append(c.dataq, op)
	c.Poll(p)
}

// queue implements carrier: stage a rendezvous packet in a header slot.
// A CTS is advertised as it is staged. FINs are only ever queued from
// inside Poll, so they wait for the next send phase (kick); RTS and CTS
// packets are pushed at once.
func (c *Conn) queue(p *des.Proc, h header, done func(p *des.Proc)) {
	if h.kind == pktCTS {
		if err := c.advertise(p, &h); err != nil {
			c.onErr(err)
			return
		}
	}
	op := c.newHdrOp(h, nil, done)
	if h.kind == pktRTS {
		c.dataq = append(c.dataq, op)
	} else {
		c.ctrlq = append(c.ctrlq, op)
	}
	if h.kind == pktFIN {
		c.kick = true
		return
	}
	c.Poll(p)
}

// signaled implements carrier: write completions reach the core only
// through the foreign-CQE hook, which a single-rail connection leaves to
// one-sided windows and RDMA-direct collectives.
func (c *Conn) signaled() bool { return c.rails.NRails() > 1 }

// postWrite implements carrier: the work-request id carries the write
// mark, the stripe index and the request id for writeCQE to route.
func (c *Conn) postWrite(p *des.Proc, k int, id uint64, idx int, wr ib.SendWR) {
	wr.WRID = wridStripeMark | uint64(idx)<<32 | (id & 0xFFFFFFFF)
	c.rails.RailQP(k).PostSend(p, wr)
}

// lost implements carrier: a ring connection cannot re-dial.
func (c *Conn) lost(err error) { c.onErr(err) }

// writeCQE routes a counted rendezvous write's completion to the core.
func (c *Conn) writeCQE(p *des.Proc, cqe ib.CQE) {
	if cqe.WRID&wridStripeMask != wridStripeMark {
		c.onErr(errf("unexpected completion, wr %#x status %v", cqe.WRID, cqe.Status))
		return
	}
	c.complete(p, cqe.WRID&0xFFFFFFFF, int((cqe.WRID&wridStripeIdxMask)>>32), cqe)
}

// Pending reports queued-but-incomplete send operations (diagnostics).
func (c *Conn) Pending() int {
	n := len(c.ctrlq) + len(c.dataq)
	if c.active != nil {
		n++
	}
	if c.rndv != nil {
		n += len(c.send) + len(c.writes)
	}
	return n
}

// Poll implements transport.Endpoint: advance the head send operation and
// drain the receive pipe.
func (c *Conn) Poll(p *des.Proc) bool {
	prog := false

	// Sends: control packets win at message boundaries.
	for {
		if c.active == nil {
			if len(c.ctrlq) > 0 {
				c.active = c.ctrlq[0]
				c.ctrlq = c.ctrlq[1:]
			} else if len(c.dataq) > 0 {
				c.active = c.dataq[0]
				c.dataq = c.dataq[1:]
			} else {
				break
			}
		}
		n, err := c.ep.Put(p, c.active.rem)
		if err != nil {
			c.onErr(errf("send: %w", err))
			return prog
		}
		if n == 0 {
			break
		}
		prog = true
		c.active.rem = rdmachan.Advance(c.active.rem, n)
		if len(c.active.rem) > 0 {
			break
		}
		done := c.active.onDone
		c.hdrPool = append(c.hdrPool, c.active.hdr)
		c.active = nil
		if done != nil {
			done(p)
		}
	}

	// Receives: a header, then its payload.
	for {
		rem := &c.rhdrRem
		if c.rstate == 1 {
			rem = &c.rpayload
		}
		n, err := c.ep.Get(p, *rem)
		if err != nil {
			c.onErr(errf("recv: %w", err))
			return prog
		}
		if n == 0 {
			// A write completion may have queued a FIN during this Get's
			// CQ drain, after the send phase ran: report progress so the
			// engine polls again instead of sleeping on it.
			prog = prog || c.kick
			c.kick = false
			return prog
		}
		prog = true
		*rem = rdmachan.Advance(*rem, n)
		if len(*rem) > 0 {
			continue
		}
		if c.rstate == 1 {
			done := c.rsink.Done
			c.rsink = transport.Sink{}
			c.rstate = 0
			if done != nil {
				done(p)
			}
			continue
		}
		h := decodeHeader(c.rhdrMem)
		c.rhdrRem = []transport.Buffer{c.rhdrBuf}
		if c.threshold == 0 && h.kind != pktEager {
			c.onErr(errf("unexpected packet kind %d on channel pipe", h.kind))
			return prog
		}
		switch h.kind {
		case pktEager:
			sink := c.h.ArriveEager(p, h.env)
			if h.env.Len == 0 {
				if sink.Done != nil {
					sink.Done(p)
				}
				continue
			}
			c.rsink = sink
			c.rpayload = []transport.Buffer{{Addr: sink.Buf.Addr, Len: h.env.Len}}
			c.rstate = 1
		case pktRTS, pktCTS, pktFIN:
			c.dispatch(p, h)
		default:
			c.onErr(errf("bad packet kind %d", h.kind))
			return prog
		}
	}
}
