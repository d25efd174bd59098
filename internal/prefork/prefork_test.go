package prefork

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/hop"
)

func instantBoot() (*Watchdog, error) { return Start(nil) }

func get(t *testing.T, addr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("GET %s: %v", addr, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestWatchdogRefusesUntilSpecialized(t *testing.T) {
	w, err := Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if code, _ := get(t, w.Addr()); code != http.StatusServiceUnavailable {
		t.Fatalf("unspecialized watchdog answered %d, want 503", code)
	}
	if w.handler.Load() != nil {
		t.Fatal("watchdog claims specialized before Specialize")
	}
	w.Specialize(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, "specialized")
	}))
	if w.handler.Load() == nil {
		t.Fatal("watchdog not specialized after Specialize")
	}
	if code, body := get(t, w.Addr()); code != http.StatusOK || !strings.Contains(body, "specialized") {
		t.Fatalf("specialized watchdog answered %d %q", code, body)
	}
}

// Stop must be deterministic: when it returns, the Serve goroutine has
// exited — no polling, no slack needed.
func TestWatchdogStopWaitsForServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	var wds []*Watchdog
	for i := 0; i < 8; i++ {
		w, err := Start(nil)
		if err != nil {
			t.Fatal(err)
		}
		wds = append(wds, w)
	}
	for _, w := range wds {
		w.Stop()
		w.Stop() // idempotent
	}
	// The accept loops are guaranteed gone; only scheduler noise may
	// remain, so poll briefly with zero tolerance for the 8 servers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Stop: %d, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A Serve error that is not the clean ErrServerClosed must reach the
// caller's hook exactly once — closing the listener out from under the
// server forces one.
func TestWatchdogServeErrorReachesHook(t *testing.T) {
	errs := make(chan error, 1)
	w, err := Start(&Hooks{ServeError: func(e error) { errs <- e }})
	if err != nil {
		t.Fatal(err)
	}
	w.lis.Close() // yank the listener: Serve returns a non-ErrServerClosed error
	select {
	case e := <-errs:
		if e == nil {
			t.Fatal("nil serve error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve error never reached the hook")
	}
	w.Stop()
}

// Stop under traffic: clients on several connections keep exchanging
// until Stop closes their connections under them; Stop returns within
// its grace and every connection goroutine has exited.
func TestWatchdogStopDuringTraffic(t *testing.T) {
	w, err := Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Specialize(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) { hop.Copy(rw, r.Body) }))
	var served atomic.Int64
	var clients sync.WaitGroup
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := hop.New(conn, w.Addr())
		clients.Add(1)
		go func() {
			defer clients.Done()
			defer c.Close()
			for {
				resp, err := c.RoundTrip(context.Background(), hop.Head{Method: "POST", Path: "/"}, strings.NewReader("ping"), 4)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				if !c.Finish() {
					return
				}
				served.Add(1)
			}
		}()
	}
	for served.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	w.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop under traffic took %v", d)
	}
	clients.Wait()
	// Every connection goroutine is gone.
	for deadline := time.Now().Add(2 * time.Second); serving() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection goroutines outlived Stop", serving())
		}
	}
}

// serving counts the goroutines answering a watchdog connection.
func serving() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "hop.(*Server).serve(")
}

func TestPoolRefillTopsUpToSize(t *testing.T) {
	p := NewPool(Config{Size: 3, Boot: instantBoot})
	defer p.Stop()
	if got := p.TryAcquire(); got != nil {
		t.Fatal("empty pool handed out a watchdog")
	}
	p.Refill()
	waitIdle(t, p, 3)
	// Acquire one: pool reports 2 until the next Refill.
	w := p.TryAcquire()
	if w == nil {
		t.Fatal("filled pool refused TryAcquire")
	}
	defer w.Stop()
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle after acquire = %d, want 2", got)
	}
	p.Refill()
	waitIdle(t, p, 3)
	// Refill at target is a no-op.
	p.Refill()
	if got := p.Idle(); got != 3 {
		t.Fatalf("idle after no-op refill = %d, want 3", got)
	}
}

// Refill must return without waiting for a single boot: the request
// path calls it inline.
func TestRefillNeverBlocksOnBoot(t *testing.T) {
	slowBoot := func() (*Watchdog, error) {
		time.Sleep(300 * time.Millisecond)
		return Start(nil)
	}
	p := NewPool(Config{Size: 4, Boot: slowBoot})
	defer p.Stop()
	start := time.Now()
	p.Refill()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("Refill blocked for %v; must only spawn goroutines", d)
	}
	waitIdle(t, p, 4)
}

func TestPoolReapOldestFirst(t *testing.T) {
	var boots atomic.Int32
	p := NewPool(Config{Size: 4, Boot: func() (*Watchdog, error) {
		boots.Add(1)
		return Start(nil)
	}})
	defer p.Stop()
	p.Refill()
	waitIdle(t, p, 4)
	if got := p.Reap(2); got != 2 {
		t.Fatalf("Reap(2) = %d", got)
	}
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle after reap = %d, want 2", got)
	}
	if got := p.Reap(10); got != 2 {
		t.Fatalf("Reap(10) on 2 idle = %d, want 2", got)
	}
	if got := p.Reap(1); got != 0 {
		t.Fatalf("Reap on empty pool = %d, want 0", got)
	}
}

// A boot that completes after Stop must not leak its watchdog, and a
// boot error must hit the error hook without corrupting the counts.
func TestPoolStopDiscardsLateBoots(t *testing.T) {
	release := make(chan struct{})
	p := NewPool(Config{Size: 2, Boot: func() (*Watchdog, error) {
		<-release
		return Start(nil)
	}})
	p.Refill()
	if got := p.Booting(); got != 2 {
		t.Fatalf("booting = %d, want 2", got)
	}
	close(release)
	p.Stop() // must wait out both boots and stop their watchdogs
	if got := p.Idle(); got != 0 {
		t.Fatalf("idle after Stop = %d", got)
	}
	if w := p.TryAcquire(); w != nil {
		t.Fatal("stopped pool handed out a watchdog")
	}
	p.Refill() // no-op on a stopped pool
	p.Stop()   // idempotent
}

func TestPoolBootErrorReachesHook(t *testing.T) {
	var errs atomic.Int32
	fail := fmt.Errorf("boom")
	p := NewPool(Config{
		Size:        2,
		Boot:        func() (*Watchdog, error) { return nil, fail },
		OnBootError: func(error) { errs.Add(1) },
	})
	defer p.Stop()
	p.Refill()
	deadline := time.Now().Add(2 * time.Second)
	for errs.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("boot errors seen: %d, want 2", errs.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.Booting(); got != 0 {
		t.Fatalf("booting stuck at %d after failed boots", got)
	}
}

func TestPoolIdleHookObservesChanges(t *testing.T) {
	var last atomic.Int32
	p := NewPool(Config{
		Size:   2,
		Boot:   instantBoot,
		OnIdle: func(n int) { last.Store(int32(n)) },
	})
	defer p.Stop()
	p.Refill()
	waitIdle(t, p, 2)
	if got := last.Load(); got != 2 {
		t.Fatalf("OnIdle last saw %d, want 2", got)
	}
	w := p.TryAcquire()
	if w == nil {
		t.Fatal("TryAcquire failed")
	}
	defer w.Stop()
	if got := last.Load(); got != 1 {
		t.Fatalf("OnIdle after acquire saw %d, want 1", got)
	}
}

// Hammer every pool operation concurrently under -race.
func TestPoolConcurrentChurn(t *testing.T) {
	p := NewPool(Config{Size: 4, Boot: instantBoot})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if w := p.TryAcquire(); w != nil {
					w.Specialize(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {}))
					w.Stop()
				}
				p.Refill()
				if j%10 == 0 {
					p.Reap(1)
				}
				p.Idle()
			}
		}()
	}
	wg.Wait()
	p.Stop()
	if got := p.Idle(); got != 0 {
		t.Fatalf("idle after churn+Stop = %d", got)
	}
}

func waitIdle(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for p.Idle() != want {
		if time.Now().After(deadline) {
			t.Fatalf("pool idle = %d, want %d", p.Idle(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
