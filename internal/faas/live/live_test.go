package live

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoFn(name string, cold time.Duration) Function {
	return Function{
		Name: name,
		Handler: func(body []byte) ([]byte, error) {
			return append([]byte("echo:"), body...), nil
		},
		ColdStart: cold,
	}
}

func post(t *testing.T, url, body string) (string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	return string(data), resp.Header
}

func TestGatewayRoundTrip(t *testing.T) {
	g := NewGateway(true)
	if err := g.Register(echoFn("echo", 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	body, hdr := post(t, base+"/function/echo", "hello")
	if body != "echo:hello" {
		t.Fatalf("body = %q", body)
	}
	if hdr.Get("X-Hotc-Reused") != "false" {
		t.Fatal("first request should be cold")
	}
	body, hdr = post(t, base+"/function/echo", "again")
	if body != "echo:again" {
		t.Fatalf("body = %q", body)
	}
	if hdr.Get("X-Hotc-Reused") != "true" {
		t.Fatal("second request should reuse")
	}
	st := g.Stats()
	if st.Requests != 2 || st.ColdStarts != 1 || st.Reused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReuseEliminatesColdLatency(t *testing.T) {
	const cold = 150 * time.Millisecond
	g := NewGateway(true)
	g.Register(echoFn("echo", cold))
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	t0 := time.Now()
	post(t, base+"/function/echo", "x")
	coldLat := time.Since(t0)
	t1 := time.Now()
	post(t, base+"/function/echo", "x")
	warmLat := time.Since(t1)

	if coldLat < cold {
		t.Fatalf("cold latency %v below configured cold start %v", coldLat, cold)
	}
	if warmLat > coldLat/2 {
		t.Fatalf("warm latency %v not clearly below cold %v", warmLat, coldLat)
	}
}

func TestNoReuseAlwaysCold(t *testing.T) {
	g := NewGateway(false)
	g.Register(echoFn("echo", 5*time.Millisecond))
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	for i := 0; i < 3; i++ {
		_, hdr := post(t, base+"/function/echo", "x")
		if hdr.Get("X-Hotc-Reused") != "false" {
			t.Fatalf("request %d reused under no-reuse gateway", i)
		}
	}
	if g.WarmInstances("echo") != 0 {
		t.Fatal("no-reuse gateway kept instances warm")
	}
	st := g.Stats()
	if st.ColdStarts != 3 || st.Reused != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownFunction404(t *testing.T) {
	g := NewGateway(true)
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	resp, err := http.Post(base+"/function/ghost", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	g := NewGateway(true)
	g.Register(Function{
		Name:    "boom",
		Handler: func([]byte) ([]byte, error) { return nil, fmt.Errorf("kaput") },
	})
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	resp, err := http.Post(base+"/function/boom", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("kaput")) {
		t.Fatalf("error body = %q", body)
	}
}

func TestRegisterValidation(t *testing.T) {
	g := NewGateway(true)
	if err := g.Register(Function{}); err == nil {
		t.Fatal("invalid function registered")
	}
}

func TestConcurrentRequestsGetDistinctInstances(t *testing.T) {
	g := NewGateway(true)
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	g.Register(Function{
		Name: "slow",
		Handler: func(b []byte) ([]byte, error) {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return b, nil
		},
	})
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/function/slow", "text/plain", strings.NewReader("x"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if maxInFlight < 2 {
		t.Fatalf("expected concurrent executions, max in flight = %d", maxInFlight)
	}
	if g.Stats().Requests != 4 {
		t.Fatalf("requests = %d", g.Stats().Requests)
	}
	// All four instances returned to the warm pool.
	if got := g.WarmInstances("slow"); got != 4 {
		t.Fatalf("warm instances = %d, want 4", got)
	}
}

// Regression: an in-flight request that finishes after Stop must tear
// its instance down, not re-append it into the freshly-reset idle map
// where its watchdog http.Server would leak forever. The handler
// outlasts Stop's 1s shutdown grace so release() runs strictly after
// Stop returned.
func TestReleaseAfterStopTearsDownInstance(t *testing.T) {
	g := NewGateway(true)
	g.Register(Function{
		Name: "slow",
		Handler: func(b []byte) ([]byte, error) {
			time.Sleep(1300 * time.Millisecond)
			return b, nil
		},
	})
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()

	// Boot one instance and let it return to the pool, then capture its
	// watchdog address.
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.Post(base+"/function/slow", "text/plain", strings.NewReader("x"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait until the request holds the (only) instance in flight.
	deadline := time.Now().Add(2 * time.Second)
	for g.Stats().Requests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // instance booted, handler sleeping

	g.Stop() // returns after ~1s grace, before the handler finishes
	<-reqDone

	// The late release must not have resurrected the instance.
	waitDeadline := time.Now().Add(3 * time.Second)
	for g.WarmInstances("slow") != 0 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("late release re-pooled an instance into a stopped gateway: warm = %d",
				g.WarmInstances("slow"))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And its watchdog goroutines must be gone: the goroutine count
	// returns to (about) the pre-test baseline.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	for {
		if n := runtime.NumGoroutine(); n <= before+1 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after stop+release",
				before, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Regression: Stop must not hold the gateway lock while shutting
// instances down serially — N warm instances with active connections
// would take up to N seconds and block every other gateway method.
// Three pinned instances must shut down concurrently (~1s), not
// serially (~3s).
func TestStopShutsPinnedInstancesConcurrently(t *testing.T) {
	g := NewGateway(true)
	g.Register(Function{
		Name: "slow",
		Handler: func(b []byte) ([]byte, error) {
			time.Sleep(50 * time.Millisecond)
			return b, nil
		},
	})
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	// Warm three instances via overlapping requests.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/function/slow", "text/plain", strings.NewReader("x"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if got := g.WarmInstances("slow"); got != 3 {
		t.Fatalf("warm = %d, want 3", got)
	}

	// Pin each watchdog with a half-sent request so its Shutdown blocks
	// for the full 1s grace.
	s := g.shard("slow")
	s.mu.Lock()
	addrs := make([]string, 0, 3)
	for _, inst := range s.idle {
		addrs = append(addrs, inst.wd.Addr())
	}
	s.mu.Unlock()
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("POST / HTTP/1.1\r\nHost: x\r\n")); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	g.Stop()
	if took := time.Since(start); took > 2500*time.Millisecond {
		t.Fatalf("Stop took %v: instances shut down serially, not concurrently", took)
	}
}

// Regression: the gateway must forward the watchdog's response headers
// — previously only status and body were copied, dropping Content-Type
// and friends. The watchdog's error path sets X-Content-Type-Options,
// which the gateway cannot re-derive from the body.
func TestGatewayForwardsWatchdogHeaders(t *testing.T) {
	g := NewGateway(true)
	g.Register(Function{
		Name:    "boom",
		Handler: func([]byte) ([]byte, error) { return nil, fmt.Errorf("kaput") },
	})
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	resp, err := http.Post(base+"/function/boom", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
		t.Fatalf("X-Content-Type-Options = %q: watchdog headers dropped", got)
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("Content-Type = %q, want the watchdog's text/plain", got)
	}
	if resp.Header.Get("X-Hotc-Reused") == "" {
		t.Fatal("gateway's own header missing")
	}
}

func TestStopShutsInstancesDown(t *testing.T) {
	g := NewGateway(true)
	g.Register(echoFn("echo", 0))
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	post(t, base+"/function/echo", "x")
	g.Stop()
	if g.WarmInstances("echo") != 0 {
		t.Fatal("instances survived Stop")
	}
}
