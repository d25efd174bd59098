package live

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/predictor"
)

// hammer drives workers x perWorker single-byte requests at f through
// the handler and returns how many did not answer want.
func hammer(g *Gateway, workers, perWorker, want int) int64 {
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("POST", "/function/f", strings.NewReader("x"))
				rec := httptest.NewRecorder()
				g.handle(rec, req)
				if rec.Code != want {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return wrong.Load()
}

// An instance owns its watchdog connection: it is dialed with the boot
// and every warm hit rides it. Under parallel load on one function the
// dial count is exactly the number of instances booted, whatever the
// number of requests served.
func TestHopDialsOncePerInstance(t *testing.T) {
	g := NewGateway(true)
	conns := trackConns(g)
	if err := g.Register(Function{
		Name:    "f",
		Handler: func(b []byte) ([]byte, error) { return b, nil },
	}); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	const workers, perWorker = 8, 25
	if n := hammer(g, workers, perWorker, 200); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	st := g.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if got := conns.dials.Load(); got != int64(st.ColdStarts) {
		t.Fatalf("hop dialed %d times for %d requests over %d instances: a warm hit must never dial",
			got, st.Requests, st.ColdStarts)
	}
}

// Connection ownership must survive the error path too: a handler that
// always fails produces watchdog 500s, the gateway drains each error
// body to EOF, and the instance goes back to the pool with the same
// connection — zero dials beyond the boots.
func TestHopKeepsConnectionOnErrorStatus(t *testing.T) {
	g := NewGateway(true)
	conns := trackConns(g)
	if err := g.Register(Function{
		Name:    "f",
		Handler: func(b []byte) ([]byte, error) { return nil, fmt.Errorf("boom") },
	}); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	const workers, perWorker = 8, 25
	if n := hammer(g, workers, perWorker, 500); n > 0 {
		t.Fatalf("%d requests did not surface the handler's 500", n)
	}
	st := g.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*perWorker)
	}
	// A handler error is the function's fault, not the instance's: the
	// instance must return to the warm pool, so later requests reuse it.
	if st.Reused == 0 {
		t.Fatal("no instance reuse across handler errors: error responses must release, not discard")
	}
	if got := conns.dials.Load(); got != int64(st.ColdStarts) {
		t.Fatalf("hop dialed %d times for %d failing requests over %d instances: error bodies are not drained before release",
			got, st.Requests, st.ColdStarts)
	}
}

// Aggregate snapshots must not stop the world: Stats, warm counts,
// resilience counters, warm ages and prediction traces are hammered
// while request traffic flows. Run under -race; the assertions are
// about liveness and internal consistency, the race detector does the
// rest.
func TestSnapshotsDuringTraffic(t *testing.T) {
	g := New(PoolConfig{
		BreakerThreshold: 3, BreakerOpenFor: time.Second,
		NewPredictor:    func() predictor.Predictor { return predictor.Default() },
		ControlInterval: time.Hour, ReapInterval: time.Hour,
		IdleTTL: time.Minute, MaxIdlePerFunction: 4,
	})
	names := make([]string, 3)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		if err := g.Register(Function{
			Name:    names[i],
			Handler: func(b []byte) ([]byte, error) { return b, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(w+i)%len(names)]
				req := httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x"))
				g.handle(httptest.NewRecorder(), req)
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var snapshots int
	for time.Now().Before(deadline) {
		st := g.Stats()
		if st.Requests < 0 || st.ColdStarts+st.Reused > st.Requests {
			t.Errorf("inconsistent stats snapshot: %+v", st)
			break
		}
		for _, name := range names {
			g.WarmInstances(name)
		}
		g.ResilienceCounters()
		g.WarmAges(time.Now())
		g.PredictionTraces()
		g.Forecasts()
		snapshots++
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshots completed while traffic flowed: Stats blocked on the request path")
	}
	checkPool(t, g)
}

// Register must be safe while requests, controller ticks and other
// Registers run: new functions join live, re-registering swaps the
// handler in place, and a late function joining the control cycle's
// registry does not race Stop. Run under -race.
func TestConcurrentRegisterDuringTraffic(t *testing.T) {
	g, clk, _ := startControlled(t,
		PoolConfig{NewPredictor: naiveFactory, IdleTTL: time.Minute, MaxIdlePerFunction: 2},
		echoFn("f0", 0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("f%d", i%4)
				req := httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x"))
				g.handle(httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			g.controlOnce("f0", clk.Advance(time.Millisecond))
			g.janitorOnce(clk.Now())
		}
	}()

	// Racing registrations: three brand-new names (each spawns a
	// controller) and a handler swap on the live one.
	var reg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		reg.Add(1)
		go func(i int) {
			defer reg.Done()
			if err := g.Register(echoFn(fmt.Sprintf("f%d", i), 0)); err != nil {
				t.Errorf("register f%d: %v", i, err)
			}
		}(i)
	}
	reg.Add(1)
	go func() {
		defer reg.Done()
		if err := g.Register(Function{
			Name:    "f0",
			Handler: func(b []byte) ([]byte, error) { return append(b, '!'), nil },
		}); err != nil {
			t.Errorf("re-register f0: %v", err)
		}
	}()
	reg.Wait()
	time.Sleep(50 * time.Millisecond) // let traffic hit the new shards
	close(stop)
	wg.Wait()

	// A swapped handler only takes effect on fresh boots — warm
	// instances keep the handler they booted with — so expire the warm
	// pool before asserting.
	g.janitorOnce(clk.Advance(2 * time.Minute))

	// All four functions must now be live and the swapped handler in
	// effect.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		req := httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x"))
		rec := httptest.NewRecorder()
		g.handle(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s after concurrent register: status %d: %s", name, rec.Code, rec.Body)
		}
		if name == "f0" && rec.Body.String() != "x!" {
			t.Fatalf("f0 handler swap not in effect: body %q", rec.Body)
		}
	}
}
