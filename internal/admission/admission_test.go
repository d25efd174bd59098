package admission

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Immediate admission under the cap, queue-full rejection past the
// per-tenant depth, and slot reuse after Done.
func TestBoundedQueueRejectsOverflow(t *testing.T) {
	q := New(Config{MaxInFlight: 2, QueueDepth: 1})

	t1, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej != nil {
		t.Fatalf("first acquire rejected: %v", rej)
	}
	t2, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej != nil {
		t.Fatalf("second acquire rejected: %v", rej)
	}

	// Third waits (depth 1). Fourth overflows the tenant queue.
	got := make(chan *Ticket, 1)
	go func() {
		tk, r := q.Acquire(context.Background(), "a", time.Time{})
		if r != nil {
			t.Errorf("queued acquire rejected: %v", r)
		}
		got <- tk
	}()
	waitFor(t, func() bool { return q.Snapshot().Queued == 1 })

	_, rej = q.Acquire(context.Background(), "a", time.Time{})
	if rej == nil || rej.Reason != ReasonQueueFull {
		t.Fatalf("want queue_full rejection, got %v", rej)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("queue_full rejection needs an actionable Retry-After, got %v", rej.RetryAfter)
	}

	t1.Done()
	t3 := <-got
	if t3 == nil {
		t.Fatal("waiter not dispatched after Done")
	}
	t2.Done()
	t3.Done()

	st := q.Snapshot()
	if st.Admitted != 3 || st.Rejected[ReasonQueueFull] != 1 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("snapshot = %+v", st)
	}
}

// A queued request whose deadline passes before a slot frees is shed
// at dispatch, never handed capacity.
func TestDeadlineShedAtDispatch(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{MaxInFlight: 1, QueueDepth: 4, Now: clk.Now})

	t1, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej != nil {
		t.Fatal(rej)
	}

	deadline := clk.Now().Add(50 * time.Millisecond)
	res := make(chan *Rejection, 1)
	go func() {
		_, r := q.Acquire(context.Background(), "a", deadline)
		res <- r
	}()
	waitFor(t, func() bool { return q.Snapshot().Queued == 1 })

	clk.Advance(time.Second) // deadline long gone
	t1.Done()                // frees the slot; dispatcher must shed, not admit

	r := <-res
	if r == nil || r.Reason != ReasonDeadline {
		t.Fatalf("want deadline shed, got %v", r)
	}
	if got := q.InFlight(); got != 0 {
		t.Fatalf("shed request took a slot: inFlight=%d", got)
	}
}

// A request arriving with its deadline already expired is refused
// before touching the queue.
func TestExpiredDeadlineRejectedOnArrival(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{MaxInFlight: 1, QueueDepth: 4, Now: clk.Now})
	_, rej := q.Acquire(context.Background(), "a", clk.Now().Add(-time.Millisecond))
	if rej == nil || rej.Reason != ReasonDeadline {
		t.Fatalf("want deadline rejection, got %v", rej)
	}
}

// Canceling a queued request's context withdraws it: the queue slot
// frees immediately and the dispatcher never sees it.
func TestContextCancelWithdrawsWaiter(t *testing.T) {
	q := New(Config{MaxInFlight: 1, QueueDepth: 4})
	t1, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej != nil {
		t.Fatal(rej)
	}

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan *Rejection, 1)
	go func() {
		_, r := q.Acquire(ctx, "a", time.Time{})
		res <- r
	}()
	waitFor(t, func() bool { return q.Snapshot().Queued == 1 })
	cancel()
	r := <-res
	if r == nil || r.Reason != ReasonCanceled {
		t.Fatalf("want canceled, got %v", r)
	}
	if q.Snapshot().Queued != 0 {
		t.Fatalf("withdrawn waiter still occupies depth %d", q.Snapshot().Queued)
	}

	// The slot still works for the next arrival.
	t1.Done()
	t2, rej := q.Acquire(context.Background(), "b", time.Time{})
	if rej != nil {
		t.Fatal(rej)
	}
	t2.Done()
}

// A waiter woken by its context's deadline is a deadline shed, with a
// retry hint, even while the queue's clock has not reached the deadline
// it was given.
func TestContextDeadlineShedsWaiter(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{MaxInFlight: 1, QueueDepth: 4, Now: clk.Now})
	t1, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej != nil {
		t.Fatal(rej)
	}
	defer t1.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, r := q.Acquire(ctx, "a", clk.Now().Add(10*time.Millisecond))
	if r == nil || r.Reason != ReasonDeadline || r.RetryAfter <= 0 {
		t.Fatalf("want a deadline shed with Retry-After, got %+v", r)
	}
	if q.Snapshot().Queued != 0 || q.Snapshot().Rejected[ReasonDeadline] != 1 {
		t.Fatalf("depth %d, stats %+v: want the waiter withdrawn as one deadline shed", q.Snapshot().Queued, q.Snapshot())
	}
}

// Round-robin: with one slot and deep backlogs on two tenants,
// dispatch alternates between them one grant each — one hot tenant
// cannot starve the other, and arrival order does not dictate dispatch
// order.
func TestRoundRobinDispatch(t *testing.T) {
	q := New(Config{MaxInFlight: 1, QueueDepth: 16})
	gate, rej := q.Acquire(context.Background(), "seed", time.Time{})
	if rej != nil {
		t.Fatal(rej)
	}

	type grant struct {
		tenant string
		ticket *Ticket
	}
	order := make(chan grant, 8)
	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tk, r := q.Acquire(context.Background(), tenant, time.Time{})
				if r != nil {
					t.Errorf("tenant %s rejected: %v", tenant, r)
					return
				}
				order <- grant{tenant, tk}
			}()
			// Serialize enqueue order within the tenant FIFO.
			waitForDepth(t, q, i+1, tenant)
		}
	}
	// a's whole backlog arrives before any of b's.
	enqueueBoth(t, q, enqueue, "a", 4, "b", 4)

	// Free the slot; each grant holds it briefly then releases,
	// letting us observe the full dispatch sequence.
	gate.Done()
	var seq []string
	for i := 0; i < 8; i++ {
		g := <-order
		seq = append(seq, g.tenant)
		g.ticket.Done()
	}
	wg.Wait()
	if got, want := strings.Join(seq, ""), "abababab"; got != want {
		t.Fatalf("dispatch order %s, want %s", got, want)
	}
}

// A flood of distinct tenant names — the name is a client-controlled
// header — leaves the queue tracking a bounded set: MaxTenants of them
// keep their own queue and the rest share the overflow tenant's.
func TestTenantCardinalityBounded(t *testing.T) {
	q := New(Config{MaxInFlight: 1, QueueDepth: 16})
	const flood = 10_000
	for i := 0; i < flood; i++ {
		tk, rej := q.Acquire(context.Background(), fmt.Sprintf("scan-%d", i), time.Time{})
		if rej != nil {
			t.Fatalf("tenant %d rejected: %v", i, rej)
		}
		if want := fmt.Sprintf("scan-%d", i); i < MaxTenants && tk.Tenant() != want {
			t.Fatalf("ticket %d bills %q, want %q", i, tk.Tenant(), want)
		} else if i >= MaxTenants && tk.Tenant() != overflowTenant {
			t.Fatalf("ticket %d bills %q, want the overflow tenant", i, tk.Tenant())
		}
		tk.Done()
	}
	st := q.Snapshot()
	if got := len(st.Tenants); got != MaxTenants+1 {
		t.Fatalf("%d tenants tracked after %d distinct names, want %d and the overflow tenant", got, flood, MaxTenants)
	}
	if got := st.Tenants[overflowTenant].Admitted; got != flood-MaxTenants {
		t.Fatalf("overflow tenant admitted %d, want %d", got, flood-MaxTenants)
	}
}

// A name over MaxTenantName bytes is billed to the overflow tenant and
// never tracked, so long names cannot pin memory; one at the cap keeps
// its own queue.
func TestLongTenantNameBilledToOverflow(t *testing.T) {
	q := New(Config{MaxInFlight: 1, QueueDepth: 1})
	for _, tc := range []struct {
		name, want string
	}{
		{strings.Repeat("a", MaxTenantName), strings.Repeat("a", MaxTenantName)},
		{strings.Repeat("b", MaxTenantName+1), overflowTenant},
		{strings.Repeat("c", 1<<20), overflowTenant},
	} {
		tk, rej := q.Acquire(context.Background(), tc.name, time.Time{})
		if rej != nil {
			t.Fatalf("%d-byte name rejected: %v", len(tc.name), rej)
		}
		if got := tk.Tenant(); got != tc.want {
			t.Errorf("a %d-byte name bills %.20q, want %.20q", len(tc.name), got, tc.want)
		}
		tk.Done()
	}
	for name := range q.Snapshot().Tenants {
		if len(name) > MaxTenantName {
			t.Errorf("a %d-byte tenant name is tracked", len(name))
		}
	}
}

// Stop wakes every queued waiter with ReasonStopped and refuses new
// arrivals; in-flight tickets still release cleanly.
func TestStopDrainsWaiters(t *testing.T) {
	q := New(Config{MaxInFlight: 1, QueueDepth: 8})
	t1, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej != nil {
		t.Fatal(rej)
	}

	const waiters = 5
	var stopped atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, r := q.Acquire(context.Background(), "a", time.Time{})
			if r != nil && r.Reason == ReasonStopped {
				stopped.Add(1)
			}
		}()
	}
	waitFor(t, func() bool { return q.Snapshot().Queued == waiters })

	q.Stop()
	wg.Wait()
	if got := stopped.Load(); got != waiters {
		t.Fatalf("want %d stopped rejections, got %d", waiters, got)
	}
	if _, r := q.Acquire(context.Background(), "a", time.Time{}); r == nil || r.Reason != ReasonStopped {
		t.Fatalf("post-stop acquire should be refused, got %v", r)
	}
	t1.Done() // must not panic or deadlock
}

// Hammer the queue from many goroutines with mixed cancels, deadlines
// and Stops — run under -race this is the churn soak. Invariant: every
// admitted ticket is balanced by Done and the final books are empty.
func TestConcurrentChurn(t *testing.T) {
	q := New(Config{MaxInFlight: 4, QueueDepth: 8})
	var admitted, refused atomic.Int64
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 128; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			var deadline time.Time
			switch i % 4 {
			case 1:
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*time.Millisecond)
				defer cancel()
			case 2:
				deadline = time.Now().Add(time.Duration(i%5) * time.Millisecond)
				ctx, cancel = context.WithDeadline(ctx, deadline)
				defer cancel()
			}
			tk, rej := q.Acquire(ctx, tenants[i%len(tenants)], deadline)
			if rej != nil {
				refused.Add(1)
				return
			}
			admitted.Add(1)
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			tk.Done()
		}(i)
	}
	wg.Wait()
	if admitted.Load()+refused.Load() != 128 {
		t.Fatalf("lost requests: admitted=%d refused=%d", admitted.Load(), refused.Load())
	}
	if q.Snapshot().Queued != 0 || q.InFlight() != 0 {
		t.Fatalf("books not empty: depth=%d inflight=%d", q.Snapshot().Queued, q.InFlight())
	}
	st := q.Snapshot()
	var rejects uint64
	for _, v := range st.Rejected {
		rejects += v
	}
	if st.Admitted != uint64(admitted.Load()) || rejects != uint64(refused.Load()) {
		t.Fatalf("snapshot disagrees with callers: %+v vs admitted=%d refused=%d",
			st, admitted.Load(), refused.Load())
	}
}

// Retry-After grows with the backlog and stays within its clamp.
func TestRetryAfterTracksBacklog(t *testing.T) {
	clk := newFakeClock()
	q := New(Config{MaxInFlight: 1, QueueDepth: 2, Now: clk.Now})

	// Teach the estimator a 2s service time.
	tk, _ := q.Acquire(context.Background(), "a", time.Time{})
	clk.Advance(2 * time.Second)
	tk.Done()

	t1, _ := q.Acquire(context.Background(), "a", time.Time{})
	defer t1.Done()
	done := make(chan struct{}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go func() {
			_, r := q.Acquire(ctx, "a", time.Time{})
			if r != nil {
				done <- struct{}{}
			}
		}()
	}
	waitFor(t, func() bool { return q.Snapshot().Queued == 2 })

	_, rej := q.Acquire(context.Background(), "a", time.Time{})
	if rej == nil || rej.Reason != ReasonQueueFull {
		t.Fatalf("want queue_full, got %v", rej)
	}
	// Backlog of 2 at ~2s each on one slot: at least 2 rounds (4s),
	// clamped at 60s.
	if rej.RetryAfter < 4*time.Second || rej.RetryAfter > time.Minute {
		t.Fatalf("RetryAfter = %v, want within [4s, 60s]", rej.RetryAfter)
	}
	cancel()
	<-done
	<-done
}

// Unlimited MaxInFlight admits everything immediately (admission
// effectively off), so the default gateway configuration costs one
// mutex hop and nothing else.
func TestUnlimitedAdmitsImmediately(t *testing.T) {
	q := New(Config{})
	for i := 0; i < 50; i++ {
		tk, rej := q.Acquire(context.Background(), "a", time.Time{})
		if rej != nil {
			t.Fatal(rej)
		}
		defer tk.Done()
	}
	if q.InFlight() != 50 || q.Snapshot().Queued != 0 {
		t.Fatalf("inflight=%d depth=%d", q.InFlight(), q.Snapshot().Queued)
	}
}

// --- helpers ---

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForDepth waits until tenant has n queued entries.
func waitForDepth(t *testing.T, q *Queue, n int, tenant string) {
	t.Helper()
	waitFor(t, func() bool {
		st := q.Snapshot()
		return st.Tenants[tenant].Queued == n
	})
}

// enqueueBoth fills tenant backlogs in a deterministic arrival order.
func enqueueBoth(t *testing.T, q *Queue, enqueue func(string, int), aName string, aN int, bName string, bN int) {
	t.Helper()
	enqueue(aName, aN)
	enqueue(bName, bN)
	waitFor(t, func() bool { return q.Snapshot().Queued == aN+bN })
}
