//go:build go1.23

// The build constraint raises this file's language version to Go 1.23,
// which has iter.Pull; go.mod stays at go 1.21 because perfbench/go.mod
// pins that version.

package des

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
)

// Engine is a discrete-event simulation kernel. It is not safe for
// concurrent use from multiple host goroutines; all interaction must happen
// from the goroutine that calls Run (or from simulated processes, which the
// engine serializes itself).
//
// Dispatch is coroutine-based: every process is an iter.Pull coroutine,
// and only the driver (the Run caller, or the Group coordinator during a
// fused instant) pops events. Resuming a process is a direct coroutine
// switch on the driver's goroutine — no channel, no scheduler trip — and
// a pausing process whose own wakeup heads the queue takes it inline
// without switching at all.
type Engine struct {
	now       Time
	q         eventQueue
	seq       uint64
	alive     int // spawned non-daemon processes that have not terminated
	daemons   int // spawned daemon processes that have not terminated
	procs     []*Proc
	deadProcs int  // dead entries still in procs; triggers compaction
	deadline  Time // events after this instant stay queued
	stopped   bool
	down      bool
	events    uint64 // total events executed, for stats/tests

	// Lineage keys (the sharded engine's deterministic merge rule, DESIGN.md
	// §13): every event carries a key derived from the key of the event
	// whose dispatch scheduled it — hash(parent key) + child index. Same-
	// instant events order by key, and because the key depends only on the
	// causal chain back to a root, the order is identical in serial and
	// sharded execution no matter how shards interleave. Children of one
	// dispatch keep consecutive keys, so same-context scheduling order is
	// FIFO exactly as before; only unrelated contexts interleave by hash.
	curBase  uint64 // hash of the dispatching event's key
	childIdx uint64 // children scheduled by the current dispatch so far

	group    *Group  // non-nil when this engine is a member of a sharded Group
	groupIdx int     // index within the group (len(shards) = the global engine)
	mbox     mailbox // cross-engine deposits bound for this engine (grouped mode)

	fpOn   bool   // mix a fingerprint of the dispatched schedule
	fp     uint64 // FNV-style accumulator over event timestamps
	fpBuf  []Time // grouped mode: timestamps buffered for merge-order folding
	fpHead int    // consumed prefix of fpBuf
}

// timeMax is the Run deadline: dispatch everything.
const timeMax = Time(math.MaxInt64)

// Key-domain constants. The root key seeds host-context scheduling (code
// running outside any event, e.g. test bodies); the salt base seeds the
// Salt chain so salted keys can never collide with child keys of the root.
const (
	rootKey     = 0x243F6A8885A308D3 // π, engine host-context lineage root
	saltKeyBase = 0x13198A2E03707344 // π, domain for Salt-derived keys
)

// mixKey derives a child lineage key from a parent key and a child index —
// a splitmix64-style finalizer, so sibling keys scatter over the full
// 64-bit space and same-instant dispatch order is effectively a
// deterministic pseudo-random shuffle.
func mixKey(parent, idx uint64) uint64 {
	h := parent + idx*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Salt derives a lineage key from application-chosen identity parts
// (a rank, a node/rail pair, a connection pair id). Construction-time code
// that runs outside any event — cluster building, fault scheduling — must
// seed the processes and events it creates with identity-derived salts so
// the lineage keys, and therefore same-instant dispatch order, come out
// identical no matter which engine of a sharded Group the call lands on.
func Salt(parts ...uint64) uint64 {
	h := uint64(saltKeyBase)
	for _, p := range parts {
		h = mixKey(h, p)
	}
	return h
}

// childKey mints the key for the next event scheduled by the current
// dispatch context: consecutive keys off the hashed parent, so siblings
// dispatch in scheduling order.
func (e *Engine) childKey() uint64 {
	k := e.curBase + e.childIdx
	e.childIdx++
	return k
}

// execCtx returns the engine whose event is currently dispatching. Inside a
// Group's serialized global phase the coordinator records the dispatching
// engine, so cross-engine calls (a global connection manager waking a shard
// process) mint child keys from the true causal parent; everywhere else the
// receiver is the dispatching engine.
func (e *Engine) execCtx() *Engine {
	if e.group != nil {
		if c := e.group.cur; c != nil {
			return c
		}
	}
	return e
}

// NewEngine returns an engine with the clock at the epoch, using the
// default (calendar) event queue.
func NewEngine() *Engine { return NewEngineWithQueue(QueueDefault) }

// NewEngineWithQueue returns an engine using the given pending-event
// structure. Both kinds dispatch in the identical (time, key, seq) order —
// the determinism cross-check suites run the same workload under each and
// assert equal schedule fingerprints.
func NewEngineWithQueue(kind QueueKind) *Engine {
	return &Engine{q: newQueue(kind), curBase: mixKey(rootKey, 0)}
}

// Sharded reports whether this engine is a member of a Group, i.e. other
// engines may run concurrently on other OS threads. Model state that can
// be reached from a remote shard must lock exactly when this is true —
// under a lone serial engine the single dispatching goroutine already
// orders every access, and the locks would be pure hot-path overhead.
func (e *Engine) Sharded() bool { return e.group != nil }

// Now returns the current simulated time. On the global engine of a Group
// it reports the group clock: the maximum instant any member has reached.
func (e *Engine) Now() Time {
	if g := e.group; g != nil && e == g.global {
		return g.now()
	}
	return e.now
}

// EventsExecuted returns the number of events the engine has dispatched.
// On the global engine of a Group it sums over every member.
func (e *Engine) EventsExecuted() uint64 {
	if g := e.group; g != nil && e == g.global {
		return g.eventsExecuted()
	}
	return e.events
}

// EnableTrace starts fingerprinting the dispatched event schedule: every
// event's timestamp is folded into an FNV-style accumulator as it fires.
// Two runs of the same program are behaviourally identical exactly when
// their fingerprints (and event counts) match — the determinism witness
// the seed-replay suites assert on. On the global engine of a Group this
// enables tracing group-wide; member timestamps are folded in merged
// dispatch order at window barriers, reproducing the serial fold exactly.
func (e *Engine) EnableTrace() {
	if g := e.group; g != nil && e == g.global {
		g.enableTrace()
		return
	}
	e.fpOn = true
	e.fp = 14695981039346656037 // FNV-1a offset basis
}

// TraceFingerprint returns the schedule fingerprint accumulated since
// EnableTrace. On the global engine of a Group it folds any timestamps
// still buffered and returns the merged group fingerprint.
func (e *Engine) TraceFingerprint() uint64 {
	if g := e.group; g != nil && e == g.global {
		return g.fingerprint()
	}
	return e.fp
}

// Schedule runs fn at absolute simulated time at (clamped to now).
func (e *Engine) Schedule(at Time, fn func()) {
	e.scheduleKeyed(at, e.execCtx().childKey(), fn)
}

// ScheduleSeeded runs fn at absolute time at under an identity-derived
// lineage key (see Salt) instead of a host-context child key. Use it for
// events scheduled outside any dispatch — fault plans, test harness pokes —
// that must order identically across serial and sharded runs.
func (e *Engine) ScheduleSeeded(salt uint64, at Time, fn func()) {
	e.scheduleKeyed(at, salt, fn)
}

func (e *Engine) scheduleKeyed(at Time, key uint64, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(event{at: at, key: key, seq: e.seq, fn: fn})
}

// After runs fn after delay d.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// AfterOn runs fn after delay d on engine dst. With dst the receiver (or
// no Group at all) this is After. Across engines of a Group it deposits the
// event into dst's mailbox — the only legal way for one shard's dispatch to
// affect another — and requires d to be at least the group lookahead, so
// the deposit lands beyond the current window and the receiving shard
// cannot have dispatched past it. The child key is minted from the calling
// dispatch context and carried with the deposit, so the event orders among
// dst's same-instant events exactly as it would have serially.
func (e *Engine) AfterOn(dst *Engine, d Time, fn func()) {
	src := e.execCtx()
	if dst == e || dst == src {
		dst.scheduleKeyed(e.now+d, src.childKey(), fn)
		return
	}
	if e.group == nil || dst.group != e.group {
		panic("des: AfterOn across engines that are not in the same group")
	}
	if d < e.group.look {
		panic("des: AfterOn delay below group lookahead")
	}
	dst.mbox.put(boxEvent{at: e.now + d, key: src.childKey(), fn: fn})
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown terminates every remaining process coroutine and drops the
// event queue, releasing everything the simulation references. A finished
// simulation otherwise pins its entire state: daemon coroutines (hardware
// service engines) stay suspended forever and keep nodes, adapters and
// application buffers reachable. Call Shutdown when a simulation will not
// be used again; the engine is dead afterwards.
func (e *Engine) Shutdown() {
	if g := e.group; g != nil && e == g.global {
		g.shutdown()
		return
	}
	e.shutdownOne()
}

func (e *Engine) shutdownOne() {
	if e.down {
		return
	}
	e.down = true
	for _, p := range e.procs {
		if p.dead {
			continue
		}
		// A paused body unwinds (its defers run) and retires itself; a
		// body whose start event never fired never runs at all.
		p.stop()
		if !p.dead {
			e.retire(p)
		}
	}
	e.procs = nil
	e.deadProcs = 0
	if e.q != nil {
		e.q.clear()
	}
}

// account advances the clock to ev and charges it to the event count and
// fingerprint. Every popped event, stale wakeups included, is accounted, so
// the trace is comparable across queue implementations and engine versions.
// The dispatching event's key becomes the lineage parent for everything the
// dispatch schedules. In grouped mode timestamps are buffered instead of
// folded: shards dispatch concurrently, so the group folds the merged
// timestamp stream at window barriers to reproduce the serial fold order.
func (e *Engine) account(ev *event) {
	e.now = ev.at
	e.events++
	e.curBase = mixKey(ev.key, 0)
	e.childIdx = 0
	if e.fpOn {
		if e.group != nil {
			e.fpBuf = append(e.fpBuf, ev.at)
		} else {
			e.fp = (e.fp ^ uint64(ev.at)) * 1099511628211
		}
	}
}

// dispatch runs one accounted event: a closure, or a process wakeup that
// resumes its process if the wakeup is still current (stale wakeups — the
// process resumed by another wakeup, or terminated — are dropped). A
// resumed process runs on the caller's goroutine until it pauses again or
// terminates; a panic in it is re-raised here.
func dispatch(ev *event) {
	if p := ev.proc; p != nil {
		if !p.dead && p.gen == ev.gen && p.waiting {
			p.next()
		}
		return
	}
	ev.fn()
}

// runDriver is the dispatch loop on the Run caller's goroutine: it pops
// events up to the deadline until the queue drains or Stop is called.
func (e *Engine) runDriver() {
	for !e.stopped {
		ev, ok := e.q.popLE(e.deadline)
		if !ok {
			return
		}
		e.account(&ev)
		dispatch(&ev)
	}
}

// Run dispatches events until the queue drains, Stop is called, or a
// simulated process panics (the panic is re-raised on the caller's
// goroutine). If processes remain alive when the queue drains, Run panics
// with a deadlock report naming each blocked process — a protocol hang in
// the layers above is a bug, and silent termination would mask it.
func (e *Engine) Run() {
	if g := e.group; g != nil && e == g.global {
		g.run(timeMax)
		return
	}
	e.stopped = false
	e.deadline = timeMax
	e.runDriver()
	if !e.stopped && e.alive > 0 {
		panic("des: deadlock: " + e.deadlockReport())
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline. Processes may still be alive; this is how open-ended
// server-style simulations are driven.
func (e *Engine) RunUntil(deadline Time) {
	if g := e.group; g != nil && e == g.global {
		g.run(deadline)
		return
	}
	e.stopped = false
	e.deadline = deadline
	e.runDriver()
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) deadlockReport() string {
	var names []string
	for _, p := range e.procs {
		if p.daemon || p.dead || !p.waiting {
			continue
		}
		names = append(names, fmt.Sprintf("%s (%s)", p.name, p.where))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Sprintf("%d process(es) alive but none blocked on a kernel primitive", e.alive)
	}
	return fmt.Sprintf("%d process(es) blocked: %s", len(names), strings.Join(names, ", "))
}

// Proc is a simulated process. Exactly one Proc executes at any instant;
// kernel primitives are the only legal blocking points.
//
// The body runs as an iter.Pull coroutine: the driver resumes it with next
// and it suspends by yielding back (pause). Both are direct coroutine
// switches on the driver's goroutine, so exactly one body or driver runs
// at any moment and the shared engine state needs no locks.
type Proc struct {
	eng     *Engine
	name    string
	next    func() (struct{}, bool) // resume the body until it pauses or ends
	stop    func()                  // end the coroutine; a paused body unwinds
	yield   func(struct{}) bool     // suspend the body; false on shutdown
	dead    bool
	daemon  bool
	waiting bool
	where   string // block site label for deadlock reports
	gen     uint64 // pause generation; stale wakeups are dropped
}

// Spawn creates a process running body and schedules it to start at the
// current simulated time. The name appears in deadlock reports.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, false, e.execCtx().childKey())
}

// SpawnDaemon creates a process that does not count toward deadlock
// detection: the simulation may finish while daemons are blocked. Hardware
// service engines (HCA receive paths, responder engines) are daemons.
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, true, e.execCtx().childKey())
}

// SpawnSeeded is Spawn with an identity-derived lineage key (see Salt) for
// the start event. Construction-time spawns — rank processes, connection
// managers — use it so process start order at an instant is identical
// across serial and sharded execution.
func (e *Engine) SpawnSeeded(salt uint64, name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, false, salt)
}

// SpawnDaemonSeeded is SpawnDaemon with an identity-derived lineage key.
func (e *Engine) SpawnDaemonSeeded(salt uint64, name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, true, salt)
}

func (e *Engine) spawn(name string, body func(p *Proc), daemon bool, key uint64) *Proc {
	p := &Proc{
		eng:     e,
		name:    name,
		daemon:  daemon,
		waiting: true,
		where:   "start",
	}
	if daemon {
		e.daemons++
	} else {
		e.alive++
	}
	e.addProc(p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			e.retire(p)
			if r := recover(); r != nil && r != (shutdownSignal{}) {
				panic(fmt.Sprintf("des: process %q panicked: %v", name, r))
			}
		}()
		p.yield = yield
		p.waiting = false
		p.gen++
		body(p)
	})
	// The start is an ordinary wakeup bound to generation 0; Shutdown
	// before it fires stops the coroutine before the body ever runs, and
	// the event is dropped with the queue.
	e.seq++
	e.q.push(event{at: e.now, key: key, seq: e.seq, proc: p})
	return p
}

// addProc records a process for Shutdown and deadlock reporting. Dead
// entries are compacted away once they dominate the slice, so churn-heavy
// runs (thousands of short-lived connection dials) keep the slice — and
// every Shutdown walk — proportional to the live population.
func (e *Engine) addProc(p *Proc) {
	if e.deadProcs > 64 && e.deadProcs > len(e.procs)/2 {
		live := e.procs[:0]
		for _, q := range e.procs {
			if !q.dead {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = live
		e.deadProcs = 0
	}
	e.procs = append(e.procs, p)
}

// retire marks p terminated and drops it from the live counts.
func (e *Engine) retire(p *Proc) {
	p.dead = true
	e.deadProcs++
	if p.daemon {
		e.daemons--
	} else {
		e.alive--
	}
}

// procsLen reports the current length of the process table (tests assert
// compaction keeps it bounded).
func (e *Engine) procsLen() int { return len(e.procs) }

// shutdownSignal is the panic value that unwinds a paused process body
// when Shutdown stops its coroutine; the spawn wrapper recovers it, so the
// body's defers run.
type shutdownSignal struct{}

// pause blocks the process until a wakeup targeting this pause generation
// fires. If that wakeup is already the next event the driver would
// dispatch, the process takes it inline — the dominant sleep/poll case
// costs no coroutine switch. Otherwise it yields to the driver. A fused
// instant sets the deadline below its own instant, which disables the
// inline path there: its events must interleave across engines. where
// labels the block site for deadlock reports.
func (p *Proc) pause(where string) {
	e := p.eng
	p.where = where
	p.waiting = true
	if ev := e.q.peek(); ev != nil && ev.proc == p && ev.gen == p.gen && ev.at <= e.deadline && !e.stopped {
		own, _ := e.q.pop()
		e.account(&own)
	} else if !p.yield(struct{}{}) {
		panic(shutdownSignal{})
	}
	p.waiting = false
	p.gen++
}

// wake schedules the process to resume at absolute time at. A wakeup is
// bound to the pause generation current at the time of the call: if the
// process has since resumed (another wakeup won the race) or terminated,
// the event is a no-op. A wakeup issued while the process is running (e.g.
// Sleep schedules its own wakeup before pausing) targets the next pause.
func (p *Proc) wake(at Time) {
	e := p.eng
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(event{at: at, key: e.execCtx().childKey(), seq: e.seq, proc: p, gen: p.gen})
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep blocks the process for duration d of simulated time. Negative
// durations sleep zero time but still yield, giving other ready processes a
// chance to run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.wake(p.eng.now + d)
	p.pause("sleep")
}

// Yield lets any other process scheduled at the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }
