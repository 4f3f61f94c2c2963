package des

// The engine's pending-event set, behind a small interface so the two
// implementations — a value-type d-ary heap and a calendar queue (Brown,
// CACM 1988) — can be swapped by Config and cross-checked for identical
// dispatch order. Both are exact priority queues over the (at, key, seq)
// total order, so the schedule fingerprint is bit-identical between them; the
// calendar queue is the default because the simulation's events are
// overwhelmingly near-future (see DESIGN.md §12 for the measurements).

// QueueKind selects the engine's pending-event structure.
type QueueKind int

const (
	// QueueDefault resolves to the profiled winner (the calendar queue).
	QueueDefault QueueKind = iota
	// QueueCalendar is the calendar queue: O(1) amortized push/pop when
	// event times are spread over a bounded horizon.
	QueueCalendar
	// QueueHeap is the 4-ary implicit heap fallback: O(log n) but with no
	// width/occupancy assumptions.
	QueueHeap
)

// String names the queue kind for benchmark output and JSON records.
func (k QueueKind) String() string {
	switch k {
	case QueueCalendar:
		return "calendar"
	case QueueHeap:
		return "heap"
	default:
		return "default"
	}
}

// event is a scheduled occurrence. Events with equal times fire in lineage
// key order (see engine.go: a key is a hash of the scheduling event's key
// and a per-dispatch child counter), with the engine-local scheduling
// sequence as the final tiebreak. The key order is a pure function of the
// simulation's causal structure, so it is identical whether the engine runs
// alone or as one shard of a Group — that is what makes sharded dispatch
// bit-identical to serial. Events are plain values — they live inside the
// queue's slices, never individually on the heap. A nil fn marks a process
// wakeup: dispatch resumes proc directly if its pause generation still
// matches gen, with no per-wakeup closure allocation.
type event struct {
	at   Time
	key  uint64
	seq  uint64
	fn   func()
	proc *Proc
	gen  uint64
}

// before is the engine's total dispatch order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// eventQueue is the pending-event set: push in any order, pop in (at, key,
// seq) order.
type eventQueue interface {
	push(ev event)
	pop() (event, bool)
	// popLE pops the earliest pending event if its timestamp is <= max —
	// the dispatch loop's peek-then-pop fused into one find-min.
	popLE(max Time) (event, bool)
	// peek returns the earliest pending event without popping it, or nil.
	// The pointer is valid until the next push or pop. The Group
	// coordinator uses it to interleave same-instant events across shard
	// queues in global key order; a pausing process uses it to spot its
	// own wakeup at the head.
	peek() *event
	len() int
	// clear drops all pending events and releases their references.
	clear()
}

func newQueue(kind QueueKind) eventQueue {
	if kind == QueueHeap {
		return &heapQueue{}
	}
	return newCalQueue()
}

// heapQueue is a 4-ary implicit heap of event values: no interface{}
// boxing, no per-event allocation, and a shallower tree than the binary
// container/heap it replaces (fewer cache lines touched per sift).
type heapQueue struct {
	evs []event
}

func (h *heapQueue) len() int { return len(h.evs) }

func (h *heapQueue) clear() { h.evs = nil }

func (h *heapQueue) push(ev event) {
	h.evs = append(h.evs, ev)
	// Sift up.
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.evs[i].before(&h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

func (h *heapQueue) peek() *event {
	if len(h.evs) == 0 {
		return nil
	}
	return &h.evs[0]
}

func (h *heapQueue) popLE(max Time) (event, bool) {
	if len(h.evs) == 0 || h.evs[0].at > max {
		return event{}, false
	}
	return h.pop()
}

func (h *heapQueue) pop() (event, bool) {
	n := len(h.evs)
	if n == 0 {
		return event{}, false
	}
	top := h.evs[0]
	last := h.evs[n-1]
	h.evs[n-1] = event{} // release fn/proc references
	h.evs = h.evs[:n-1]
	n--
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if h.evs[c].before(&h.evs[best]) {
					best = c
				}
			}
			if !h.evs[best].before(&last) {
				break
			}
			h.evs[i] = h.evs[best]
			i = best
		}
		h.evs[i] = last
	}
	return top, true
}

// calBucket is one calendar bucket: the events of the days that hash to
// it, held in a small 4-ary min-heap over the (at, key, seq) order. The
// calendar only ever needs the bucket's minimum, so a heap gives O(log k)
// insert and pop where a sorted array paid O(k) shifting — and k explodes
// exactly when the simulation bursts: lineage keys are hashes, so a burst
// of same-instant events (a 1024-rank collective fanning out) inserts at
// random positions, not at the tail the old monotone-seq order hit.
type calBucket struct {
	evs []event
}

func (b *calBucket) empty() bool { return len(b.evs) == 0 }

func (b *calBucket) min() *event { return &b.evs[0] }

func (b *calBucket) pop() event {
	top := b.evs[0]
	n := len(b.evs) - 1
	last := b.evs[n]
	b.evs[n] = event{} // release fn/proc references
	b.evs = b.evs[:n]
	if n > 0 {
		evs := b.evs
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if evs[c].before(&evs[best]) {
					best = c
				}
			}
			if !evs[best].before(&last) {
				break
			}
			evs[i] = evs[best]
			i = best
		}
		evs[i] = last
	}
	return top
}

func (b *calBucket) insert(ev event) {
	b.evs = append(b.evs, ev)
	i := len(b.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !b.evs[i].before(&b.evs[parent]) {
			break
		}
		b.evs[i], b.evs[parent] = b.evs[parent], b.evs[i]
		i = parent
	}
}

// calQueue is a classic calendar queue: time is divided into days of width
// 2^shift ns; day d's events live in bucket d & mask, sorted. Popping
// sweeps forward from the current day; when a whole year (all buckets)
// passes without a hit, the cursor jumps straight to the earliest bucket
// minimum, so sparse regions cost one scan instead of one step per empty
// day. The bucket count and width adapt to the pending population.
type calQueue struct {
	buckets []calBucket
	mask    int64
	shift   uint
	day     int64 // dispatch cursor, in day units
	n       int

	// Memoized location of the next event, so next()+pop() pairs and
	// repeated peeks don't re-sweep. Invalidated by a push into an earlier
	// day and by popping a bucket dry.
	cacheOK     bool
	cacheBucket int
	cacheDay    int64

	scratch []event // resize staging, reused
}

const (
	calMinBuckets = 16
	calInitShift  = 10 // 1 µs days until the first resize measures the real spread
)

func newCalQueue() *calQueue {
	q := &calQueue{}
	q.setup(calMinBuckets, calInitShift, 0)
	return q
}

func (q *calQueue) setup(nb int, shift uint, day int64) {
	if cap(q.buckets) >= nb {
		q.buckets = q.buckets[:nb]
		for i := range q.buckets {
			q.buckets[i].evs = q.buckets[i].evs[:0]
		}
	} else {
		q.buckets = make([]calBucket, nb)
	}
	q.mask = int64(nb - 1)
	q.shift = shift
	q.day = day
	q.cacheOK = false
}

func (q *calQueue) len() int { return q.n }

func (q *calQueue) clear() {
	q.buckets = nil
	q.scratch = nil
	q.n = 0
	q.cacheOK = false
}

func (q *calQueue) push(ev event) {
	d := int64(ev.at) >> q.shift
	if d < q.day {
		// Cannot happen (Schedule clamps at >= now, and day never passes the
		// earliest pending event), but folding into the current day keeps
		// the structure correct regardless.
		d = q.day
	}
	q.buckets[d&q.mask].insert(ev)
	q.n++
	if q.cacheOK && d < q.cacheDay {
		q.cacheOK = false
	}
	if q.n > 2*len(q.buckets) {
		q.resize()
	}
}

// locate finds the bucket holding the next event in dispatch order and the
// day it belongs to. It does not advance q.day — pushes at times earlier
// than a peeked-at event must still be honored, so cursor movement is only
// persisted by pop, where the popped timestamp bounds all later pushes.
func (q *calQueue) locate() (int, int64, bool) {
	if q.n == 0 {
		return 0, 0, false
	}
	if q.cacheOK {
		return q.cacheBucket, q.cacheDay, true
	}
	nb := len(q.buckets)
	day := q.day
	for i := 0; i < nb; i++ {
		b := &q.buckets[day&q.mask]
		if !b.empty() && int64(b.min().at)>>q.shift == day {
			q.cacheOK, q.cacheBucket, q.cacheDay = true, int(day&q.mask), day
			return q.cacheBucket, day, true
		}
		day++
	}
	// A whole year is empty: jump to the earliest bucket minimum.
	best := -1
	var bestEv *event
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.empty() {
			continue
		}
		if best < 0 || b.min().before(bestEv) {
			best, bestEv = i, b.min()
		}
	}
	day = int64(bestEv.at) >> q.shift
	q.cacheOK, q.cacheBucket, q.cacheDay = true, best, day
	return best, day, true
}

func (q *calQueue) peek() *event {
	idx, _, ok := q.locate()
	if !ok {
		return nil
	}
	return q.buckets[idx].min()
}

func (q *calQueue) pop() (event, bool) {
	idx, day, ok := q.locate()
	if !ok {
		return event{}, false
	}
	return q.take(idx, day), true
}

func (q *calQueue) popLE(max Time) (event, bool) {
	idx, day, ok := q.locate()
	if !ok || q.buckets[idx].min().at > max {
		return event{}, false
	}
	return q.take(idx, day), true
}

// take removes and returns the minimum of bucket idx, whose events belong to
// day, and persists the cursor there.
func (q *calQueue) take(idx int, day int64) event {
	b := &q.buckets[idx]
	ev := b.pop()
	q.n--
	q.day = day // safe: every later push is clamped to at >= ev.at
	if b.empty() || int64(b.min().at)>>q.shift != day {
		q.cacheOK = false
	}
	if q.n < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize()
	}
	return ev
}

// resize rebuilds the calendar around the current population: bucket count
// tracks n (occupancy near one), and the day width is re-derived from the
// pending set's time spread so that consecutive events land a few buckets
// apart — the regime where push and pop are O(1).
func (q *calQueue) resize() {
	all := q.scratch[:0]
	for i := range q.buckets {
		b := &q.buckets[i]
		all = append(all, b.evs...)
	}

	nb := calMinBuckets
	for nb < q.n {
		nb <<= 1
	}

	shift := q.shift
	if q.n >= 2 {
		lo, hi := all[0].at, all[0].at
		for _, ev := range all[1:] {
			if ev.at < lo {
				lo = ev.at
			}
			if ev.at > hi {
				hi = ev.at
			}
		}
		// Aim for ~4 events per day across the observed spread; clustered
		// same-instant events share a day regardless of width.
		width := int64(hi-lo) * 4 / int64(q.n)
		shift = 0
		for shift < 40 && 1<<(shift+1) <= width {
			shift++
		}
	}

	floor := q.day << q.shift // lower bound on every pending/future timestamp's day
	q.setup(nb, shift, floor>>shift)
	for _, ev := range all {
		d := int64(ev.at) >> q.shift
		if d < q.day {
			d = q.day
		}
		q.buckets[d&q.mask].insert(ev)
	}
	q.scratch = all[:0] // keep the staging array for the next resize
}
