// Package prefork implements the generic pre-forked watchdog pool
// behind the live gateway's fast cold path. The expensive,
// function-agnostic part of a watchdog boot — binding a loopback
// listener, getting its accept loop running, paying the generic
// runtime-init delay — happens here, ahead of any request. A cold start
// then collapses to *specialization*: swapping the function handler
// into an already-running watchdog and paying only the
// function-specific share of init (the pool-of-pre-baked-generic-
// runtimes design of Lin & Glikson, arXiv:1903.12221).
//
// The package is mechanism only. The delay a generic boot pays, the
// handler a specialization installs, and the policy for when to refill
// or reap all belong to the caller (internal/faas/live); the pool just
// guarantees that refills never run on the caller's goroutine and that
// Stop is deterministic (every accept loop has exited when Stop
// returns).
package prefork

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"hotc/internal/hop"
)

// Watchdog is one pre-forked worker: a loopback listener whose
// connections a hop.Server answers with the handler swapped in at
// specialization time. Until then requests get 503 — a generic watchdog
// serves nobody. An in-process watchdog (Inline) has no listener: its
// owner runs the function itself, on its own goroutine.
type Watchdog struct {
	addr    string
	lis     net.Listener // what srv accepts on; nil in process
	srv     hop.Server
	handler atomic.Pointer[http.Handler]

	// done closes when the accept loop's goroutine has returned, which
	// is what makes Stop deterministic for goroutine-leak checks.
	done     chan struct{}
	stopOnce sync.Once
}

// Hooks are what a watchdog's owner hears of it. Any may be nil.
type Hooks struct {
	// ServeError is called at most once with the error that ended the
	// accept loop — any error other than the listener closing under
	// Stop. Surfacing it is what lets the gateway count watchdog
	// accept-loop failures as resilience events.
	ServeError func(error)
	// Panic is called for each handler panic the watchdog's server
	// recovers (hop.Server.OnPanic).
	Panic func()
	// Body is called with each reply's body bytes (hop.Server.OnBody).
	Body func(copied, spliced int64)
}

// Start boots a generic watchdog: listener bound, accept loop running,
// no handler installed. h, if non-nil, is what its owner hears of it.
func Start(h *Hooks) (*Watchdog, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("prefork: watchdog listen: %w", err)
	}
	w := &Watchdog{addr: lis.Addr().String(), lis: lis, done: make(chan struct{})}
	w.srv.Handler = http.HandlerFunc(w.dispatch)
	if h == nil {
		h = &Hooks{}
	}
	w.srv.OnPanic(h.Panic)
	w.srv.OnBody(h.Body)
	go func() {
		if err := w.srv.Serve(lis); err != nil && h.ServeError != nil {
			h.ServeError(err)
		}
		close(w.done)
	}()
	return w, nil
}

// Inline is a generic in-process watchdog: no listener, no accept loop,
// no goroutine. Its owner runs the function on the request's own
// goroutine, so Addr is empty and Stop returns at once. It is what the
// generic pool holds, and a boot starts from, when functions run in
// process.
func Inline() *Watchdog { return &Watchdog{} }

// dispatch routes a request to the specialized handler, or refuses it
// when none is installed yet (a request racing specialization — the
// gateway never proxies to an unspecialized watchdog, but a stray
// client could).
func (w *Watchdog) dispatch(rw http.ResponseWriter, r *http.Request) {
	if h := w.handler.Load(); h != nil {
		(*h).ServeHTTP(rw, r)
		return
	}
	http.Error(rw, "prefork: watchdog not specialized", http.StatusServiceUnavailable)
}

// Specialize installs (or replaces) the watchdog's function handler.
// Safe to call while the watchdog is accepting: the swap is one atomic
// pointer store.
func (w *Watchdog) Specialize(h http.Handler) {
	w.handler.Store(&h)
}

// LimitBodies bounds every request body read on a connection accepted
// from now on at n bytes (0: unbounded): a handler reading past it gets
// *http.MaxBytesError.
func (w *Watchdog) LimitBodies(n int64) { w.srv.LimitBodies(n) }

// Addr is the watchdog's host:port, empty in process.
func (w *Watchdog) Addr() string { return w.addr }

// Stop is the server's Stop — listener and idle connections closed at
// once, up to a second for handlers still running — and then waits for
// the accept loop's goroutine to exit, which it always does: after Stop
// returns, the watchdog owns no accept loop. Idempotent; concurrent
// callers all block until the first Stop's work is done. In process it
// returns at once.
func (w *Watchdog) Stop() {
	if w.lis == nil {
		return
	}
	w.stopOnce.Do(w.srv.Stop)
	<-w.done
}

// Config tunes a Pool.
type Config struct {
	// Size is the target number of idle generic watchdogs Refill tops
	// the pool up to.
	Size int
	// Boot creates one generic watchdog, paying the generic share of
	// cold start. It runs on a pool-owned goroutine, never the
	// caller's. Required.
	Boot func() (*Watchdog, error)
	// OnBoot, if set, is called after each successful generic boot
	// (refill accounting).
	OnBoot func()
	// OnBootError, if set, is called for each failed generic boot.
	OnBootError func(error)
	// OnIdle, if set, observes every idle-count change (gauge hookup).
	// Called with the pool lock held: it must not call back into the
	// pool and must be cheap (an atomic gauge store).
	OnIdle func(n int)
}

// Pool maintains a target number of idle generic watchdogs. TryAcquire
// pops one without blocking; Refill tops the pool back up on
// background goroutines. The request path therefore never waits on a
// generic boot: it either gets a ready watchdog or falls back to a
// full cold start while the refill proceeds concurrently.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	idle    []*Watchdog // oldest first; TryAcquire pops the tail
	booting int
	stopped bool
	// wg tracks refill goroutines so Stop can wait for them.
	wg sync.WaitGroup
}

// NewPool creates a pool. It does not boot anything: call Refill to
// populate it.
func NewPool(cfg Config) *Pool {
	if cfg.Boot == nil {
		panic("prefork: pool needs a Boot function")
	}
	if cfg.Size < 0 {
		cfg.Size = 0
	}
	return &Pool{cfg: cfg}
}

// TryAcquire pops an idle generic watchdog, or returns nil when none
// is ready (the caller falls back to a full cold boot). Never blocks
// on a boot.
func (p *Pool) TryAcquire() *Watchdog {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 || p.stopped {
		return nil
	}
	w := p.idle[n-1]
	p.idle = p.idle[:n-1]
	p.notifyIdleLocked()
	return w
}

// Refill tops the pool up to its target size asynchronously: the
// deficit is computed under the lock, but every boot runs on its own
// pool-owned goroutine. Safe (and intended) to call from the request
// path right after TryAcquire — the call itself is a mutex and some
// goroutine spawns, never a boot.
func (p *Pool) Refill() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	deficit := p.cfg.Size - len(p.idle) - p.booting
	if deficit <= 0 {
		p.mu.Unlock()
		return
	}
	p.booting += deficit
	p.wg.Add(deficit)
	p.mu.Unlock()

	for i := 0; i < deficit; i++ {
		go p.bootOne()
	}
}

// bootOne runs one generic boot and pools the result — unless the pool
// stopped or overfilled while it was booting.
func (p *Pool) bootOne() {
	defer p.wg.Done()
	w, err := p.cfg.Boot()
	p.mu.Lock()
	if p.booting > 0 {
		p.booting--
	}
	if err != nil {
		p.mu.Unlock()
		if p.cfg.OnBootError != nil {
			p.cfg.OnBootError(err)
		}
		return
	}
	if p.stopped || len(p.idle) >= p.cfg.Size {
		p.mu.Unlock()
		w.Stop()
		return
	}
	p.idle = append(p.idle, w)
	p.notifyIdleLocked()
	p.mu.Unlock()
	if p.cfg.OnBoot != nil {
		p.cfg.OnBoot()
	}
}

// Idle reports the number of ready generic watchdogs.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Booting reports the number of generic boots in flight.
func (p *Pool) Booting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.booting
}

// Reap stops up to n idle generics, oldest first, returning how many
// were actually stopped. The janitor uses this to shed generic memory
// under budget pressure; the watchdogs are stopped outside the pool
// lock, concurrently.
func (p *Pool) Reap(n int) int {
	if n <= 0 {
		return 0
	}
	p.mu.Lock()
	if n > len(p.idle) {
		n = len(p.idle)
	}
	doomed := append([]*Watchdog(nil), p.idle[:n]...)
	p.idle = append(p.idle[:0:0], p.idle[n:]...)
	p.notifyIdleLocked()
	p.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range doomed {
		wg.Add(1)
		go func(w *Watchdog) {
			defer wg.Done()
			w.Stop()
		}(w)
	}
	wg.Wait()
	return len(doomed)
}

// Stop tears the pool down: idle watchdogs are stopped concurrently,
// in-flight boots are waited out (they self-stop on completion), and
// no goroutine owned by the pool survives the call.
func (p *Pool) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.stopped = true
	idle := p.idle
	p.idle = nil
	p.notifyIdleLocked()
	p.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range idle {
		wg.Add(1)
		go func(w *Watchdog) {
			defer wg.Done()
			w.Stop()
		}(w)
	}
	wg.Wait()
	p.wg.Wait()
}

// notifyIdleLocked reports the idle count to the observer. Caller
// holds p.mu.
func (p *Pool) notifyIdleLocked() {
	if p.cfg.OnIdle != nil {
		p.cfg.OnIdle(len(p.idle))
	}
}
