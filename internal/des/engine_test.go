package des

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 0) })
	e.Schedule(10, func() { got = append(got, 2) }) // same time: scheduling order
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestSchedulePastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.Schedule(50, func() {
			if e.Now() != 100 {
				t.Errorf("past event ran at %v, want clamped to 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 7*Microsecond {
		t.Fatalf("woke at %v, want 7µs", wake)
	}
}

func TestInterleavedSleepersDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(Time(i+1) * Microsecond)
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("got %d entries, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	var c Cond
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i)) // deterministic wait order: w0, w1, w2
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
		p.Sleep(10)
		c.Broadcast()
	})
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCondWaitFor(t *testing.T) {
	e := NewEngine()
	var c Cond
	x := 0
	var sawAt Time
	e.Spawn("waiter", func(p *Proc) {
		c.WaitFor(p, func() bool { return x >= 3 })
		sawAt = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5)
			x++
			c.Broadcast()
		}
	})
	e.Run()
	if sawAt != 15 {
		t.Fatalf("predicate satisfied at %v, want 15", sawAt)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	e := NewEngine()
	var q Queue[int]
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(3)
			q.Put(i)
		}
	})
	e.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	var q Queue[string]
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put("a")
	q.Put("b")
	v, ok := q.TryGet()
	if !ok || v != "a" {
		t.Fatalf("TryGet = %q,%v; want a,true", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	e := NewEngine()
	r := NewResource(2)
	var order []string
	hold := func(name string, n int, start, dur Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p, n)
			order = append(order, name+"+")
			p.Sleep(dur)
			r.Release(n)
			order = append(order, name+"-")
		})
	}
	hold("a", 2, 0, 10)
	hold("b", 1, 1, 10) // must wait for a despite capacity 2... a holds both
	hold("c", 1, 2, 10) // queues behind b
	e.Run()
	want := []string{"a+", "a-", "b+", "c+", "b-", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceSmallBehindLargeWaits(t *testing.T) {
	e := NewEngine()
	r := NewResource(4)
	var events []string
	e.Spawn("big", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10)
		r.Release(3)
	})
	e.Spawn("bigger", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 4) // cannot fit until big releases
		events = append(events, fmt.Sprintf("bigger@%d", p.Now()))
		r.Release(4)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p, 1) // fits numerically, but FIFO behind bigger
		events = append(events, fmt.Sprintf("small@%d", p.Now()))
		r.Release(1)
	})
	e.Run()
	if len(events) != 2 || events[0] != "bigger@10" || events[1] != "small@10" {
		t.Fatalf("events = %v, want [bigger@10 small@10]", events)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		s := fmt.Sprint(r)
		if want := "stuck"; !contains(s, want) {
			t.Fatalf("deadlock report %q missing %q", s, want)
		}
	}()
	e.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if s := fmt.Sprint(r); !contains(s, "kaboom") || !contains(s, "boom") {
			t.Fatalf("panic %q should name process and cause", s)
		}
	}()
	e.Run()
}

// TestShutdownReleasesProcesses checks that Shutdown ends every process,
// serial and grouped: bodies paused in Sleep, Cond.Wait and
// Resource.Acquire, and a daemon, unwind with their defers run; processes
// whose start event never fired are retired without running; the live
// counts drop to zero; and every coroutine goroutine exits.
func TestShutdownReleasesProcesses(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			var engines []*Engine
			root := NewEngine()
			if shards > 0 {
				g := NewGroup(QueueCalendar, shards, 1000)
				root = g.Global()
				engines = g.all
			} else {
				engines = []*Engine{root}
			}
			var procs []*Proc
			started, unwound := 0, 0
			spawn := func(e *Engine, daemon bool, block func(p *Proc)) {
				body := func(p *Proc) {
					started++
					defer func() { unwound++ }()
					block(p)
					t.Errorf("%s returned from its blocking call", p.Name())
				}
				if daemon {
					procs = append(procs, e.SpawnDaemon("daemon", body))
				} else {
					procs = append(procs, e.Spawn("blocked", body))
				}
			}
			for _, e := range engines {
				var c Cond
				r := NewResource(1)
				spawn(e, false, func(p *Proc) { p.Sleep(Second) })
				spawn(e, false, func(p *Proc) { c.Wait(p) })
				spawn(e, false, func(p *Proc) { r.Acquire(p, 1); c.Wait(p) })
				spawn(e, false, func(p *Proc) { p.Sleep(1); r.Acquire(p, 1) })
				spawn(e, true, func(p *Proc) {
					for {
						p.Sleep(Microsecond)
					}
				})
			}
			root.RunUntil(10 * Microsecond)
			if want := 5 * len(engines); started != want {
				t.Fatalf("%d bodies started, want %d", started, want)
			}
			for _, e := range engines {
				procs = append(procs, e.Spawn("never-started", func(p *Proc) {
					t.Error("body of a never-started process ran at Shutdown")
				}))
			}
			root.Shutdown()
			if unwound != started {
				t.Errorf("%d of %d paused bodies ran their defers", unwound, started)
			}
			for _, p := range procs {
				if !p.dead {
					t.Errorf("process %s not dead after Shutdown", p.Name())
				}
			}
			for i, e := range engines {
				if e.alive != 0 || e.daemons != 0 {
					t.Errorf("engine %d: alive=%d daemons=%d after Shutdown, want 0", i, e.alive, e.daemons)
				}
			}
			// Window drivers signal completion just before their goroutines
			// exit, so allow them a moment to finish.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Shutdown, baseline %d", n, base)
			}
		})
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
		}
	})
	e.RunUntil(95)
	if ticks != 9 {
		t.Fatalf("ticks = %d, want 9", ticks)
	}
	if e.Now() != 95 {
		t.Fatalf("Now = %v, want 95", e.Now())
	}
	e.RunUntil(200)
	if ticks != 20 {
		t.Fatalf("ticks = %d, want 20", ticks)
	}
}

func TestStaleWakeupDropped(t *testing.T) {
	// Two broadcasts at the same instant must not double-resume a waiter
	// that immediately re-waits.
	e := NewEngine()
	var c Cond
	resumed := 0
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		resumed++
		c.Wait(p) // second wait; a stale wakeup would corrupt this
		resumed++
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5)
		c.Broadcast()
		c.Broadcast() // stale for the first pause
		p.Sleep(5)
		c.Broadcast() // legitimate wake for the second wait
	})
	e.Run()
	if resumed != 2 {
		t.Fatalf("resumed = %d, want 2", resumed)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Microseconds(7.6), "7.6µs"},
		{1500 * Microsecond, "1500µs"},
		{25 * Millisecond, "25ms"},
		{12 * Second, "12s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMicrosecondsRoundTrip(t *testing.T) {
	f := func(us uint16) bool {
		tm := Microseconds(float64(us))
		return tm == Time(us)*Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of sleep durations, total events and final clock are
// identical across runs (determinism) and the final clock equals the max
// cumulative duration.
func TestDeterminismProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		run := func() (Time, uint64) {
			e := NewEngine()
			for i, d := range durs {
				d := Time(d)
				e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					p.Sleep(d)
					p.Sleep(d)
				})
			}
			e.Run()
			return e.Now(), e.EventsExecuted()
		}
		t1, n1 := run()
		t2, n2 := run()
		var max Time
		for _, d := range durs {
			if 2*Time(d) > max {
				max = 2 * Time(d)
			}
		}
		return t1 == t2 && n1 == n2 && t1 == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
