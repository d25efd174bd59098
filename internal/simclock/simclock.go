// Package simclock provides a virtual clock and a deterministic
// discrete-event scheduler. All simulated components in this repository
// take their notion of time from a *Scheduler rather than the wall
// clock, which makes every experiment byte-for-byte reproducible.
//
// Time is modelled as a time.Duration offset from the start of the
// simulation. Events scheduled for the same instant fire in the order
// they were scheduled (FIFO tie-break on a sequence number), so runs
// are deterministic regardless of map iteration or goroutine ordering.
package simclock

import (
	"errors"
	"fmt"
	"time"
)

// Time is a virtual timestamp: the elapsed simulated duration since the
// scheduler was created.
type Time = time.Duration

// event is one slot of the queue. A slot is recycled once it leaves the
// queue, fired or reaped: gen counts its lives, so a handle from an
// earlier life can tell it no longer owns the slot.
type event struct {
	when     Time
	seq      uint64
	fn       func()
	gen      uint64
	canceled bool
}

// Event is the handle At and After return for a scheduled callback. The
// callback runs exactly once, at its deadline, on the goroutine that
// calls Run/Step; there is no hidden concurrency inside the scheduler.
// A handle is a value: it stays valid however long it is kept, and once
// its event has fired or been reaped it acts on nothing, even after the
// scheduler has reused the event's slot. The zero Event is inert.
type Event struct {
	ev  *event
	gen uint64
}

// Cancel prevents a pending event from firing. Canceling an event that
// already fired (or was already canceled) is a no-op. Cancel reports
// whether the event was still pending.
func (e Event) Cancel() bool {
	if e.ev == nil || e.ev.gen != e.gen || e.ev.canceled {
		return false
	}
	e.ev.canceled = true
	return true
}

// before is the queue's total order: deadline first, then the sequence
// number handed out at scheduling time. No two events share a sequence
// number, so the order in which a heap releases them does not depend on
// the order they were pushed in.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// schedule queues fn at (when, seq) in a recycled slot.
func (s *Scheduler) schedule(when Time, seq uint64, fn func()) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev, s.free = s.free[n-1], s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.when, ev.seq, ev.fn = when, seq, fn
	s.push(ev)
	return ev
}

// recycle ends a popped slot's life: handles to it go inert and the
// callback is dropped so the free list keeps nothing alive.
func (s *Scheduler) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.canceled = nil, false
	s.free = append(s.free, ev)
}

// push adds ev to the binary min-heap s.queue.
func (s *Scheduler) push(ev *event) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	s.queue = q
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (s *Scheduler) pop() *event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if child+1 < n && q[child+1].before(q[child]) {
				child++
			}
			if !q[child].before(last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	s.queue = q
	return top
}

// Scheduler is a deterministic discrete-event simulator. The zero value
// is not usable; construct one with New.
type Scheduler struct {
	now     Time
	seq     uint64
	queue   []*event // binary min-heap ordered by event.before
	free    []*event // recycled slots
	running bool
	fired   uint64
	limit   uint64 // safety valve against runaway event loops; 0 = none
}

// New returns a Scheduler positioned at virtual time zero.
func New() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetEventLimit installs a safety valve: Run and RunUntil return
// ErrEventLimit once more than n events have fired. n == 0 removes the
// limit.
func (s *Scheduler) SetEventLimit(n uint64) { s.limit = n }

// ErrEventLimit is returned by Run/RunUntil when the event safety valve
// configured with SetEventLimit trips.
var ErrEventLimit = errors.New("simclock: event limit exceeded")

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: that is always a logic error in a simulation, and
// silently clamping it would hide bugs.
func (s *Scheduler) At(t Time, fn func()) Event {
	if fn == nil {
		panic("simclock: At with nil callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simclock: scheduling into the past (now=%v, at=%v)", s.now, t))
	}
	s.seq++
	ev := s.schedule(t, s.seq, fn)
	return Event{ev: ev, gen: ev.gen}
}

// AtEach schedules fn(i) at whens[i] for every i, as len(whens) calls
// of At in index order would, while keeping a single entry in the
// queue. whens must be non-decreasing and must not start in the past.
//
// The whole block of sequence numbers is reserved up front and each
// firing queues the next (whens[i], reserved seq) before calling fn, so
// the (when, seq) order against every other event — those
// scheduled before the call and those scheduled while the stream runs —
// is exactly what scheduling all of them at once gives. Replaying a
// trace of N arrivals therefore costs a queue as deep as the work in
// flight, not N.
func (s *Scheduler) AtEach(whens []Time, fn func(i int)) {
	if fn == nil {
		panic("simclock: AtEach with nil callback")
	}
	if len(whens) == 0 {
		return
	}
	if whens[0] < s.now {
		panic(fmt.Sprintf("simclock: scheduling into the past (now=%v, at=%v)", s.now, whens[0]))
	}
	for i := 1; i < len(whens); i++ {
		if whens[i] < whens[i-1] {
			panic(fmt.Sprintf("simclock: AtEach deadlines decrease at index %d (%v after %v)", i, whens[i], whens[i-1]))
		}
	}
	first := s.seq + 1
	s.seq += uint64(len(whens))
	next := 0
	var arrive func()
	arrive = func() {
		i := next
		next++
		if next < len(whens) {
			s.schedule(whens[next], first+uint64(next), arrive)
		}
		fn(i)
	}
	s.schedule(whens[0], first, arrive)
}

// After schedules fn to run d from now. Negative d panics, zero d runs
// after all events already scheduled for the current instant.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("simclock: After with negative duration %v", d))
	}
	return s.At(s.now+d, fn)
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned stop function is called. The interval must be
// positive.
func (s *Scheduler) Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("simclock: Every with non-positive interval %v", interval))
	}
	stopped := false
	var tick func()
	var pending Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = s.After(interval, tick)
		}
	}
	pending = s.After(interval, tick)
	return func() {
		stopped = true
		pending.Cancel()
	}
}

// Step executes the single next event, advancing virtual time to its
// deadline. It reports whether an event was executed (false when the
// queue is empty).
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		ev := s.pop()
		when, fn, canceled := ev.when, ev.fn, ev.canceled
		s.recycle(ev) // before fn runs: what fn schedules may reuse the slot
		if canceled {
			continue
		}
		s.now = when
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains. It returns ErrEventLimit
// if the safety valve trips, nil otherwise.
func (s *Scheduler) Run() error {
	if s.running {
		panic("simclock: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.Step() {
		if s.limit != 0 && s.fired > s.limit {
			return ErrEventLimit
		}
	}
	return nil
}

// RunUntil executes events with deadlines <= t, then advances the clock
// to exactly t (even if no event fired). Events scheduled beyond t stay
// queued.
func (s *Scheduler) RunUntil(t Time) error {
	if t < s.now {
		return fmt.Errorf("simclock: RunUntil into the past (now=%v, until=%v)", s.now, t)
	}
	if s.running {
		panic("simclock: RunUntil called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	for {
		ev := s.peek()
		if ev == nil || ev.when > t {
			break
		}
		s.Step()
		if s.limit != 0 && s.fired > s.limit {
			return ErrEventLimit
		}
	}
	s.now = t
	return nil
}

func (s *Scheduler) peek() *event {
	for len(s.queue) > 0 {
		if s.queue[0].canceled {
			s.recycle(s.pop())
			continue
		}
		return s.queue[0]
	}
	return nil
}

// Sleep is a convenience for sequential simulation scripts: it runs all
// events within the next d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Sleep with negative duration %v", d))
	}
	// RunUntil only fails on past deadlines or the event limit; a past
	// deadline is impossible here and the limit error is deliberately
	// surfaced by the next Run/RunUntil call.
	_ = s.RunUntil(s.now + d)
}
