// Package admission is the live gateway's overload-control tier: a
// per-function admission queue that polices concurrency before any
// warm-pool or boot work is committed.
//
// The failure mode it targets is saturation, not faults. Without it an
// unbounded burst on one function turns into one goroutine, one queued
// boot and one warm instance per request — for every tenant at once —
// until memory or the file-descriptor table gives out. The queue turns
// that collapse into a policed resource (the pool-based view of warm
// capacity): a bounded number of requests execute, a bounded number
// wait, and everything past that is refused immediately with enough
// information (a Retry-After estimate) for a well-behaved client to
// come back when capacity exists.
//
// Three mechanisms compose:
//
//   - Bounded queues. At most MaxInFlight requests are dispatched
//     concurrently; past that, arrivals wait in a per-tenant FIFO of at
//     most QueueDepth entries. Overflow is rejected instantly —
//     rejecting costs microseconds, queuing unboundedly costs the whole
//     node.
//
//   - Deadline-aware shedding. A queued request that cannot possibly be
//     served in time (its deadline passed while it waited) is shed at
//     dispatch instead of being handed a watchdog: the cheapest work is
//     work never started. Callers additionally pass their context, so a
//     client that disconnects mid-queue frees its slot immediately.
//
//   - Weighted fair dispatch across tenants. Dispatch cycles tenants in
//     weighted round-robin order (per-tenant FIFOs underneath), so a
//     tenant flooding its own queue delays itself, never its
//     neighbours: with equal weights, N active tenants each get 1/N of
//     the dispatch slots regardless of how deep any one backlog is.
//
// One Queue guards one function; the gateway owns one per shard and
// keys tenants off the X-Hotc-Tenant header (defaulting to the
// function name, so untagged traffic degrades to per-function
// fairness).
package admission

import (
	"fmt"
	"sync"
	"time"
)

// Reason classifies why a request was refused.
type Reason string

const (
	// ReasonQueueFull: the tenant's queue was at depth; the request was
	// never enqueued.
	ReasonQueueFull Reason = "queue_full"
	// ReasonDeadline: the request's deadline expired before dispatch.
	ReasonDeadline Reason = "deadline"
	// ReasonCanceled: the caller's context was canceled while queued
	// (client disconnect).
	ReasonCanceled Reason = "canceled"
	// ReasonStopped: the queue was stopped while the request waited.
	ReasonStopped Reason = "stopped"
)

// Rejection reports a refused request: the reason plus a Retry-After
// hint (zero when retrying is pointless, e.g. the queue stopped).
type Rejection struct {
	Reason     Reason
	RetryAfter time.Duration
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("admission: rejected (%s)", r.Reason)
}

// Config tunes a Queue.
type Config struct {
	// MaxInFlight caps concurrently dispatched requests. <= 0 means
	// unlimited: every Acquire admits immediately and no queue forms.
	MaxInFlight int
	// QueueDepth caps waiting requests per tenant. <= 0 with a finite
	// MaxInFlight means no queueing at all: requests beyond the
	// in-flight cap are rejected on arrival.
	QueueDepth int
	// Weights are the fair-dispatch quanta per tenant: a tenant with
	// weight 2 gets two dispatch slots per round where a weight-1
	// tenant gets one. Unlisted tenants get weight 1.
	Weights map[string]int
	// Now is the clock; nil means time.Now. Tests inject fakes.
	Now func() time.Time
	// OnQueueDepth, when set, is called (under the queue lock) whenever
	// the total number of waiting requests changes — the gauge hook.
	OnQueueDepth func(n int)
	// OnInFlight mirrors OnQueueDepth for the dispatched count.
	OnInFlight func(n int)
}

// Stats is a point-in-time snapshot of a queue's counters.
type Stats struct {
	// Admitted counts requests dispatched (immediately or after
	// waiting).
	Admitted uint64 `json:"admitted"`
	// Rejected counts refusals by reason.
	Rejected map[Reason]uint64 `json:"rejected,omitempty"`
	// InFlight and Queued are current occupancy.
	InFlight int `json:"inFlight"`
	Queued   int `json:"queued"`
	// Tenants breaks occupancy and goodput down per tenant.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of a queue snapshot.
type TenantStats struct {
	Queued   int    `json:"queued"`
	Admitted uint64 `json:"admitted"`
}

// waiter states. Transitions happen under the queue mutex; resolution
// is signalled by closing ready, so the waiting goroutine reads
// outcome with a happens-before edge and no lock.
const (
	stateQueued = iota
	stateAdmitted
	stateShed    // deadline expired at dispatch
	stateStopped // queue stopped underneath the waiter
	stateRemoved // waiter withdrew (context canceled)
)

type waiter struct {
	tq       *tenantQ
	deadline time.Time // zero = none
	state    int
	ready    chan struct{}
}

// tenantQ is one tenant's FIFO plus its fair-dispatch credit.
type tenantQ struct {
	name     string
	weight   int
	credit   int
	q        []*waiter
	inRing   bool
	admitted uint64
}

// Queue is one function's admission controller. The zero value is not
// usable; construct with New.
type Queue struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenantQ
	ring     []*tenantQ // tenants with waiters, in dispatch order
	ringIdx  int
	inFlight int
	queued   int
	stopped  bool

	admitted uint64
	rejected map[Reason]uint64

	// ewmaService tracks smoothed per-request service time (dispatch to
	// Done), feeding the Retry-After estimate.
	ewmaService time.Duration
}

// New builds a Queue from cfg.
func New(cfg Config) *Queue {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Queue{
		cfg:      cfg,
		tenants:  make(map[string]*tenantQ),
		rejected: make(map[Reason]uint64),
	}
}

// Ticket is a granted admission. The holder must call Done exactly
// once when the request finishes (however it finishes), freeing the
// slot for the next waiter.
type Ticket struct {
	q         *Queue
	tq        *tenantQ
	dispatch  time.Time
	waited    time.Duration
	done      bool
	doneGuard sync.Mutex
}

// Waited reports how long the request queued before dispatch (zero
// for immediate admission).
func (t *Ticket) Waited() time.Duration { return t.waited }

// Tenant reports the tenant the queue billed the request to: the name
// Acquire was given, or the shared overflow tenant once the queue tracks maxTenants
// others — a bounded set, safe to use as a metric label.
func (t *Ticket) Tenant() string { return t.tq.name }

// Done releases the slot and dispatches the next eligible waiter. Safe
// to call more than once; only the first call has effect.
func (t *Ticket) Done() {
	t.doneGuard.Lock()
	if t.done {
		t.doneGuard.Unlock()
		return
	}
	t.done = true
	t.doneGuard.Unlock()

	q := t.q
	q.mu.Lock()
	if q.inFlight > 0 {
		q.inFlight--
	}
	// Fold the observed service time into the Retry-After estimator.
	if d := q.cfg.Now().Sub(t.dispatch); d > 0 {
		if q.ewmaService == 0 {
			q.ewmaService = d
		} else {
			q.ewmaService = (q.ewmaService*4 + d) / 5
		}
	}
	if q.cfg.OnInFlight != nil {
		q.cfg.OnInFlight(q.inFlight)
	}
	q.dispatchLocked()
	q.mu.Unlock()
}

// Blocker is the canceling half of a context: Done and Err, which is
// all Acquire needs (and all tests must fake).
type Blocker interface {
	Done() <-chan struct{}
	Err() error
}

// Acquire asks for an execution slot for tenant. It returns a Ticket
// when admitted — possibly after blocking in the fair queue — or a
// Rejection when refused. deadline, when non-zero, sheds the request
// if it is still queued at that instant (the caller's ctx is expected
// to carry the same deadline, which is what actually wakes the
// waiter). ctx cancellation withdraws a queued request immediately.
func (q *Queue) Acquire(ctx Blocker, tenant string, deadline time.Time) (*Ticket, *Rejection) {
	now := q.cfg.Now()
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return nil, &Rejection{Reason: ReasonStopped}
	}
	if !deadline.IsZero() && now.After(deadline) {
		q.rejected[ReasonDeadline]++
		q.mu.Unlock()
		return nil, &Rejection{Reason: ReasonDeadline}
	}
	tq := q.tenantLocked(tenant)
	// Immediate admission: capacity free and nobody ahead of us. (If
	// waiters exist, even a free slot goes through the fair dispatcher
	// so a late arrival cannot jump the queue.)
	if (q.cfg.MaxInFlight <= 0 || q.inFlight < q.cfg.MaxInFlight) && q.queued == 0 {
		q.inFlight++
		q.admitted++
		tq.admitted++
		if q.cfg.OnInFlight != nil {
			q.cfg.OnInFlight(q.inFlight)
		}
		q.mu.Unlock()
		return &Ticket{q: q, tq: tq, dispatch: now}, nil
	}
	if len(tq.q) >= q.cfg.QueueDepth {
		q.rejected[ReasonQueueFull]++
		ra := q.retryAfterLocked()
		q.mu.Unlock()
		return nil, &Rejection{Reason: ReasonQueueFull, RetryAfter: ra}
	}
	w := &waiter{tq: tq, deadline: deadline, ready: make(chan struct{})}
	tq.q = append(tq.q, w)
	q.queued++
	if !tq.inRing {
		tq.inRing = true
		q.ring = append(q.ring, tq)
	}
	if q.cfg.OnQueueDepth != nil {
		q.cfg.OnQueueDepth(q.queued)
	}
	// A slot may have freed between our capacity check and the enqueue
	// bookkeeping (we held the lock throughout, but the queue may have
	// been non-empty with capacity available when a prior Done raced a
	// burst of arrivals). Run the dispatcher so nothing stalls.
	q.dispatchLocked()
	q.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ready:
	case <-done:
		q.mu.Lock()
		if w.state == stateQueued {
			// Withdraw: unlink the entry so it neither occupies depth
			// nor reaches the dispatcher. O(QueueDepth) worst case,
			// which is bounded and tiny next to a wasted dispatch.
			w.state = stateRemoved
			for i, e := range tq.q {
				if e == w {
					tq.q = append(tq.q[:i], tq.q[i+1:]...)
					break
				}
			}
			if len(tq.q) == 0 && tq.inRing {
				for i, e := range q.ring {
					if e == tq {
						q.removeRingLocked(i)
						break
					}
				}
			}
			q.queued--
			if q.cfg.OnQueueDepth != nil {
				q.cfg.OnQueueDepth(q.queued)
			}
			reason := ReasonCanceled
			if !w.deadline.IsZero() && q.cfg.Now().After(w.deadline) {
				reason = ReasonDeadline
			}
			q.rejected[reason]++
			q.mu.Unlock()
			return nil, &Rejection{Reason: reason}
		}
		q.mu.Unlock()
		// The dispatcher resolved us in the same instant; honour its
		// outcome below (an admitted-but-canceled ticket is returned to
		// the caller, whose deferred Done releases it — the request
		// itself will fail fast on its dead context).
		<-w.ready
	}

	switch w.state {
	case stateAdmitted:
		doneAt := q.cfg.Now()
		return &Ticket{q: q, tq: tq, dispatch: doneAt, waited: doneAt.Sub(now)}, nil
	case stateShed:
		q.mu.Lock()
		ra := q.retryAfterLocked()
		q.mu.Unlock()
		return nil, &Rejection{Reason: ReasonDeadline, RetryAfter: ra}
	default: // stateStopped
		return nil, &Rejection{Reason: ReasonStopped}
	}
}

// maxTenants bounds the distinct tenants one queue tracks. The name is
// client-controlled (the X-Hotc-Tenant header) and a tenantQ lives as
// long as its queue, so without a bound a scan of random names grows
// the map — and every label keyed off it — forever.
const maxTenants = 1024

// overflowTenant is the one queue shared by every tenant that arrives
// after maxTenants others: together they get one tenant's depth and one
// tenant's share of dispatch.
const overflowTenant = "~overflow"

// tenantLocked resolves (lazily creating) a tenant's queue. Tenants
// listed in Config.Weights always get their own; any other name past
// the bound shares overflowTenant's.
func (q *Queue) tenantLocked(name string) *tenantQ {
	if tq := q.tenants[name]; tq != nil {
		return tq
	}
	weight := 1
	if w, listed := q.cfg.Weights[name]; listed {
		if w > 0 {
			weight = w
		}
	} else if len(q.tenants) >= maxTenants && name != overflowTenant {
		return q.tenantLocked(overflowTenant)
	}
	tq := &tenantQ{name: name, weight: weight}
	q.tenants[name] = tq
	return tq
}

// dispatchLocked moves waiters into flight while capacity lasts,
// cycling tenants in weighted round-robin order and shedding entries
// whose deadline already passed. Caller holds q.mu.
func (q *Queue) dispatchLocked() {
	for (q.cfg.MaxInFlight <= 0 || q.inFlight < q.cfg.MaxInFlight) && q.queued > 0 {
		w := q.nextLocked()
		if w == nil {
			return
		}
		q.queued--
		if q.cfg.OnQueueDepth != nil {
			q.cfg.OnQueueDepth(q.queued)
		}
		if !w.deadline.IsZero() && q.cfg.Now().After(w.deadline) {
			// Cheap shed: the client's deadline passed while it waited;
			// dispatching now would only burn a watchdog on an answer
			// nobody is waiting for.
			w.state = stateShed
			q.rejected[ReasonDeadline]++
			close(w.ready)
			continue
		}
		w.state = stateAdmitted
		q.inFlight++
		q.admitted++
		w.tq.admitted++
		if q.cfg.OnInFlight != nil {
			q.cfg.OnInFlight(q.inFlight)
		}
		close(w.ready)
	}
}

// nextLocked picks the next live waiter by weighted round-robin:
// the tenant under the cursor serves one entry per unit of credit,
// refilled to its weight when the cursor returns with credit spent.
// Withdrawn waiters are discarded in passing. Caller holds q.mu.
func (q *Queue) nextLocked() *waiter {
	for len(q.ring) > 0 {
		if q.ringIdx >= len(q.ring) {
			q.ringIdx = 0
		}
		tq := q.ring[q.ringIdx]
		if len(tq.q) == 0 {
			q.removeRingLocked(q.ringIdx)
			continue
		}
		if tq.credit <= 0 {
			tq.credit = tq.weight
		}
		tq.credit--
		w := tq.q[0]
		tq.q = tq.q[1:]
		if len(tq.q) == 0 {
			q.removeRingLocked(q.ringIdx)
		} else if tq.credit <= 0 {
			q.ringIdx++
		}
		return w
	}
	return nil
}

// removeRingLocked drops the tenant at ring position i, keeping the
// cursor on the element that slid into its place. Caller holds q.mu.
func (q *Queue) removeRingLocked(i int) {
	tq := q.ring[i]
	tq.inRing = false
	tq.credit = 0
	q.ring = append(q.ring[:i], q.ring[i+1:]...)
	if q.ringIdx > i || q.ringIdx >= len(q.ring) {
		if q.ringIdx > 0 {
			q.ringIdx--
		}
	}
}

// retryAfterLocked estimates when capacity will free up: the current
// backlog divided by the service rate the in-flight slots sustain,
// clamped to [1s, 60s] so the header is always actionable. Caller
// holds q.mu.
func (q *Queue) retryAfterLocked() time.Duration {
	est := q.ewmaService
	if est <= 0 {
		return time.Second
	}
	slots := q.cfg.MaxInFlight
	if slots <= 0 {
		slots = 1
	}
	// Rounds of service needed to drain the backlog plus our slot.
	rounds := q.queued/slots + 1
	ra := est * time.Duration(rounds)
	if ra < time.Second {
		ra = time.Second
	}
	if ra > time.Minute {
		ra = time.Minute
	}
	return ra
}

// Stop refuses all future Acquires and wakes every queued waiter with
// ReasonStopped. In-flight tickets remain valid; their Done calls
// still balance the books. Idempotent.
func (q *Queue) Stop() {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	q.stopped = true
	for _, tq := range q.ring {
		for _, w := range tq.q {
			if w.state != stateQueued {
				continue
			}
			w.state = stateStopped
			q.rejected[ReasonStopped]++
			close(w.ready)
		}
		tq.q = nil
		tq.inRing = false
		tq.credit = 0
	}
	q.ring = nil
	q.ringIdx = 0
	q.queued = 0
	if q.cfg.OnQueueDepth != nil {
		q.cfg.OnQueueDepth(0)
	}
	q.mu.Unlock()
}

// Snapshot returns the queue's counters and occupancy.
func (q *Queue) Snapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Admitted: q.admitted,
		InFlight: q.inFlight,
		Queued:   q.queued,
	}
	if len(q.rejected) > 0 {
		st.Rejected = make(map[Reason]uint64, len(q.rejected))
		for k, v := range q.rejected {
			st.Rejected[k] = v
		}
	}
	for name, tq := range q.tenants {
		live := len(tq.q)
		if live == 0 && tq.admitted == 0 {
			continue
		}
		if st.Tenants == nil {
			st.Tenants = make(map[string]TenantStats)
		}
		st.Tenants[name] = TenantStats{Queued: live, Admitted: tq.admitted}
	}
	return st
}

// Depth reports the number of waiting requests.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// InFlight reports the number of dispatched, unfinished requests.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inFlight
}
