package tenant

import "jitgc/internal/trace"

// ring is a bounded FIFO of admitted requests — one tenant queue. A queued
// request's Time is its open-loop arrival, which the tenant's latency is
// measured from; dispatch restamps a copy with the dispatch time. Admission
// past the bound is the caller's drop decision. Storage follows use: nothing
// until the first push, then ringMinSlots, doubling (never past the bound)
// when a push finds it full — measured peak depth is 2 against a default
// bound of 64 — so the dispatch path allocates only while a queue is
// reaching a depth it has not held before.
type ring struct {
	buf   []trace.Request
	head  int
	n     int
	limit int // the bound: QueueDepth
}

// ringMinSlots is a ring's first allocation (or its bound, if smaller).
const ringMinSlots = 4

func newRing(limit int) ring { return ring{limit: limit} }

func (q *ring) len() int   { return q.n }
func (q *ring) full() bool { return q.n == q.limit }

func (q *ring) push(r trace.Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

// grow doubles the full storage, up to limit, unwrapping the queue to the
// front.
func (q *ring) grow() {
	buf := make([]trace.Request, min(max(2*len(q.buf), ringMinSlots), q.limit))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *ring) peek() trace.Request { return q.buf[q.head] }

func (q *ring) pop() trace.Request {
	r := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}

// scheduler is a deficit-round-robin weighted-fair scheduler over bounded
// per-tenant queues (Shreedhar & Varghese). Backlogged tenants sit in a
// FIFO active list; the front tenant serves requests while its deficit
// covers their page cost, earns quantum×weight more deficit when it cannot,
// and rotates to the back. A tenant whose queue empties leaves the list and
// forfeits its deficit, so credit never accumulates across idle periods.
//
// The dispatch cost of a request is its page count: pages are what consume
// device time, so weights divide device bandwidth, not request slots.
//
// Starvation-freedom needs every weight ≥ 1 and the quantum ≥ 1 (each
// rotation then strictly grows the front tenant's deficit toward the head
// request's bounded cost). Config.Validate rejects anything else; dispatch
// would otherwise rotate the active list forever without serving.
type scheduler struct {
	queues   []ring
	deficit  []int64
	quantum  []int64 // per-tenant replenishment: base quantum × weight
	active   []int32 // circular FIFO of backlogged tenants
	actHead  int
	actN     int
	inActive []bool

	queued    int   // requests across all queues
	peakDepth int   // high-water mark of any single tenant queue
	dropped   int64 // admissions refused on a full queue
	admitted  int64
	served    int64
}

// newScheduler builds a scheduler for len(weights) tenants with the given
// per-tenant queue capacity and base quantum (pages). Callers validate
// weights, depth and quantum beforehand (Config.Validate).
func newScheduler(weights []int64, quantum int64, depth int) *scheduler {
	n := len(weights)
	s := &scheduler{
		queues:   make([]ring, n),
		deficit:  make([]int64, n),
		quantum:  make([]int64, n),
		active:   make([]int32, n),
		inActive: make([]bool, n),
	}
	for i, w := range weights {
		s.queues[i] = newRing(depth)
		s.quantum[i] = quantum * w
	}
	return s
}

// admit offers one arrival to tenant t's queue. It reports false — a
// drop — when the queue is at capacity: open-loop backpressure sheds load
// at admission instead of growing an unbounded backlog.
func (s *scheduler) admit(t int, r trace.Request) bool {
	q := &s.queues[t]
	if q.full() {
		s.dropped++
		return false
	}
	q.push(r)
	s.admitted++
	s.queued++
	if q.len() > s.peakDepth {
		s.peakDepth = q.len()
	}
	if !s.inActive[t] {
		s.inActive[t] = true
		s.active[(s.actHead+s.actN)%len(s.active)] = int32(t)
		s.actN++
	}
	return true
}

// backlogged reports whether any request is queued.
func (s *scheduler) backlogged() bool { return s.queued > 0 }

// queuedAt returns tenant t's current queue depth.
func (s *scheduler) queuedAt(t int) int { return s.queues[t].len() }

// dispatch removes and returns the next request under DRR order. ok is
// false when nothing is queued.
func (s *scheduler) dispatch() (tenant int, r trace.Request, ok bool) {
	if s.queued == 0 {
		return 0, trace.Request{}, false
	}
	for {
		t := int(s.active[s.actHead])
		q := &s.queues[t]
		cost := int64(q.peek().Pages)
		if s.deficit[t] < cost {
			// Earn this visit's quantum and rotate to the back.
			s.deficit[t] += s.quantum[t]
			s.active[(s.actHead+s.actN)%len(s.active)] = int32(t)
			s.actHead = (s.actHead + 1) % len(s.active)
			continue
		}
		r = q.pop()
		s.deficit[t] -= cost
		s.queued--
		s.served++
		if q.len() == 0 {
			// Leaving the active list forfeits the remaining deficit.
			s.deficit[t] = 0
			s.inActive[t] = false
			s.actHead = (s.actHead + 1) % len(s.active)
			s.actN--
		}
		return t, r, true
	}
}
