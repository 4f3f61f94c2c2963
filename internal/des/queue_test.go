package des

import (
	"math/rand"
	"testing"
)

// queueScript is a deterministic operation sequence applied to both queue
// implementations; identical pop sequences prove the calendar queue is an
// exact priority queue, not an approximate one.
type queueOp struct {
	push  bool
	delta Time // offset from the last popped timestamp
}

func makeScript(seed int64, n int) []queueOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queueOp, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) < 2 {
			var d Time
			switch rng.Intn(10) {
			case 0:
				d = 0 // same-instant cluster
			case 1:
				d = Time(rng.Int63n(int64(Second))) // far jump: empty-year sweep
			default:
				d = Time(rng.Int63n(int64(10 * Microsecond)))
			}
			ops = append(ops, queueOp{push: true, delta: d})
		} else {
			ops = append(ops, queueOp{push: false})
		}
	}
	return ops
}

func applyScript(q eventQueue, ops []queueOp) []event {
	var out []event
	var seq uint64
	var now Time
	for _, op := range ops {
		if op.push {
			seq++
			q.push(event{at: now + op.delta, seq: seq})
			continue
		}
		if head := q.peek(); head != nil {
			at := head.at
			ev, _ := q.pop()
			if ev.at != at {
				panic("peek/pop disagree")
			}
			now = ev.at
			out = append(out, ev)
		}
	}
	for {
		ev, ok := q.pop()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	return out
}

// TestQueueKindsIdenticalOrder drives the heap and the calendar queue
// through the same randomized push/pop script (same-instant clusters,
// sparse second-scale jumps, interleaved peeks) and requires bit-identical
// pop sequences.
func TestQueueKindsIdenticalOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := makeScript(seed, 20000)
		a := applyScript(&heapQueue{}, ops)
		b := applyScript(newCalQueue(), ops)
		if len(a) != len(b) {
			t.Fatalf("seed %d: popped %d events from heap, %d from calendar", seed, len(a), len(b))
		}
		for i := range a {
			if a[i].at != b[i].at || a[i].seq != b[i].seq {
				t.Fatalf("seed %d: pop %d differs: heap (at=%d seq=%d) calendar (at=%d seq=%d)",
					seed, i, a[i].at, a[i].seq, b[i].at, b[i].seq)
			}
		}
		// Verify the shared order really is the (at, seq) total order.
		for i := 1; i < len(a); i++ {
			if !a[i-1].before(&a[i]) {
				t.Fatalf("seed %d: pop %d out of order", seed, i)
			}
		}
	}
}

// TestCalendarEarlierPushAfterPeek pins the peek-cache rule: peeking must
// not advance the dispatch cursor, so a later push at an earlier time (but
// still >= the clock) is popped first.
func TestCalendarEarlierPushAfterPeek(t *testing.T) {
	q := newCalQueue()
	q.push(event{at: Time(Millisecond), seq: 1})
	if head := q.peek(); head == nil || head.at != Time(Millisecond) {
		t.Fatalf("peek = %v; want an event at 1ms", head)
	}
	q.push(event{at: Time(10), seq: 2})
	ev, _ := q.pop()
	if ev.at != Time(10) || ev.seq != 2 {
		t.Fatalf("popped (at=%d seq=%d); want the later-pushed earlier event", ev.at, ev.seq)
	}
	ev, _ = q.pop()
	if ev.at != Time(Millisecond) || ev.seq != 1 {
		t.Fatalf("popped (at=%d seq=%d); want the peeked event", ev.at, ev.seq)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestCalendarSparseJump exercises the empty-year fast path: events many
// calendar years apart must still pop in order without the cursor stepping
// through every empty day.
func TestCalendarSparseJump(t *testing.T) {
	q := newCalQueue()
	times := []Time{0, Time(Second), 40 * Time(Second), 41 * Time(Second)}
	for i, at := range times {
		q.push(event{at: at, seq: uint64(i + 1)})
	}
	for i, want := range times {
		ev, ok := q.pop()
		if !ok || ev.at != want {
			t.Fatalf("pop %d = (at=%d, ok=%v); want at=%d", i, ev.at, ok, want)
		}
	}
}

// TestCalendarResizeStress pushes enough events to force repeated grow
// resizes, drains through the shrink path, and checks order and count.
func TestCalendarResizeStress(t *testing.T) {
	q := newCalQueue()
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	for i := 0; i < n; i++ {
		q.push(event{at: Time(rng.Int63n(int64(100 * Microsecond))), seq: uint64(i + 1)})
	}
	if q.len() != n {
		t.Fatalf("len = %d, want %d", q.len(), n)
	}
	var prev event
	for i := 0; i < n; i++ {
		ev, ok := q.pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if i > 0 && !prev.before(&ev) {
			t.Fatalf("pop %d out of order: (%d,%d) then (%d,%d)", i, prev.at, prev.seq, ev.at, ev.seq)
		}
		prev = ev
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestScheduleDispatchZeroAlloc pins the tentpole's allocation claim: once
// the queue's storage is warm, scheduling and dispatching an event
// allocates nothing on either queue kind — events are values in reused
// slices, and process wakeups ride the event itself rather than a closure.
func TestScheduleDispatchZeroAlloc(t *testing.T) {
	for _, kind := range []QueueKind{QueueHeap, QueueCalendar} {
		e := NewEngineWithQueue(kind)
		fn := func() {}
		warm := func() {
			for i := 0; i < 8; i++ {
				e.Schedule(e.now+Time(i%3), fn)
			}
			e.Run()
		}
		warm()
		if avg := testing.AllocsPerRun(50, warm); avg != 0 {
			t.Errorf("%v: %.1f allocs per schedule+run batch, want 0", kind, avg)
		}
	}
}

// TestProcsCompaction asserts the process table stays bounded across
// heavy churn — the np=4096 lazy-dial pattern that used to grow e.procs
// (and every Shutdown walk) without limit.
func TestProcsCompaction(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 20000; i++ {
		e.Spawn("churn", func(p *Proc) { p.Sleep(Microsecond) })
		e.Run()
	}
	if n := e.procsLen(); n > 256 {
		t.Fatalf("procs table holds %d entries after churn; compaction should keep it bounded", n)
	}
	// The table must still know about live processes: a daemon spawned
	// before more churn survives compaction.
	var got *Proc
	e.SpawnDaemon("keeper", func(p *Proc) {
		got = p
		for {
			p.Sleep(Second)
		}
	})
	for i := 0; i < 1000; i++ {
		e.Spawn("churn", func(p *Proc) { p.Sleep(Microsecond) })
		e.RunUntil(e.Now() + 10*Microsecond)
	}
	found := false
	for _, p := range e.procs {
		if p == got {
			found = true
		}
	}
	if !found {
		t.Fatal("live daemon evicted by compaction")
	}
	e.Shutdown()
}

// BenchmarkEngineScheduleDispatch measures the schedule+dispatch hot loop
// on both queue kinds; ReportAllocs pins the zero-steady-state-allocation
// property the pooled design exists for.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	for _, kind := range []QueueKind{QueueHeap, QueueCalendar} {
		b.Run(kind.String(), func(b *testing.B) {
			e := NewEngineWithQueue(kind)
			n := 0
			var fn func()
			fn = func() {
				if n < b.N {
					n++
					e.Schedule(e.now+Time(n&7), fn)
				}
			}
			// Keep a standing population so the queue works at realistic
			// occupancy rather than ping-ponging a single event.
			for i := 0; i < 64; i++ {
				e.Schedule(Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkProcHandoff measures one simulated blocking point: a process
// sleeping zero-length intervals, each iteration one wake event that the
// pausing process takes inline as the queue head (the self-resume path).
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSwitch measures the dominant real handoff: two processes
// alternating through Conds, so every pause suspends one process and the
// driver resumes the other. Each iteration is two process switches.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	var ping, pong Cond
	turn := 0
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			turn = 1
			pong.Signal()
			ping.WaitFor(p, func() bool { return turn == 0 })
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.WaitFor(p, func() bool { return turn == 1 })
			turn = 0
			ping.Signal()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
