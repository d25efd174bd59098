package live

import (
	"bytes"
	"context"
	"errors"
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
		Handler: func(_ context.Context, body []byte) ([]byte, error) {
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
	g := New(PoolConfig{})
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
	g := New(PoolConfig{})
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

func TestUnknownFunction404(t *testing.T) {
	g := New(PoolConfig{})
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
	g := New(PoolConfig{})
	g.Register(Function{
		Name:    "boom",
		Handler: func(context.Context, []byte) ([]byte, error) { return nil, fmt.Errorf("kaput") },
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
	g := New(PoolConfig{})
	if err := g.Register(Function{}); err == nil {
		t.Fatal("invalid function registered")
	}
}

func TestConcurrentRequestsGetDistinctInstances(t *testing.T) {
	g := New(PoolConfig{})
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	g.Register(Function{
		Name: "slow",
		Handler: func(_ context.Context, b []byte) ([]byte, error) {
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
// where its watchdog's accept loop would leak forever. The handler
// outlasts Stop's 1s grace for running handlers so release() runs
// strictly after Stop returned.
func TestReleaseAfterStopTearsDownInstance(t *testing.T) {
	onBackends(t, func(t *testing.T, backend string) {
		g := New(PoolConfig{Backend: backend})
		g.Register(Function{
			Name: "slow",
			Handler: func(_ context.Context, b []byte) ([]byte, error) {
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
	})
}

// Regression: Stop must not hold the gateway lock while shutting
// instances down serially — N warm instances with active connections
// would take up to N seconds and block every other gateway method.
// Three pinned instances must shut down concurrently (~1s), not
// serially (~3s).
func TestStopShutsPinnedInstancesConcurrently(t *testing.T) {
	g := New(PoolConfig{Backend: BackendSocket})
	g.Register(Function{
		Name: "slow",
		Handler: func(_ context.Context, b []byte) ([]byte, error) {
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
	onBackends(t, func(t *testing.T, backend string) {
		g := New(PoolConfig{Backend: backend})
		g.Register(Function{
			Name:    "boom",
			Handler: func(context.Context, []byte) ([]byte, error) { return nil, fmt.Errorf("kaput") },
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
	})
}

// What a client sees of a watchdog's reply through the gateway, pinned
// at the last commit whose watchdogs ran net/http's server: the
// Content-Type (sniffed by the gateway's own server now that the
// watchdog's codec sniffs nothing), the Content-Length, http.Error's
// X-Content-Type-Options and the gateway's X-Hotc-* headers, for a
// bytes reply, a short and a long stream reply, a 413 and a 500, cold
// and then warm, on either backend.
func TestWatchdogReplyHeadersUnchanged(t *testing.T) {
	onBackends(t, func(t *testing.T, backend string) { watchdogReplyHeaders(t, backend) })
}

func watchdogReplyHeaders(t *testing.T, backend string) {
	g := New(PoolConfig{Backend: backend})
	for _, fn := range []Function{
		echoFn("bytes", 0),
		{Name: "stream", Stream: func(_ context.Context, r io.Reader, w io.Writer) error { _, err := io.Copy(w, r); return err }},
		{Name: "long", Stream: func(_ context.Context, r io.Reader, w io.Writer) error { _, err := io.Copy(w, r); return err }},
		{Name: "toolarge", Stream: func(context.Context, io.Reader, io.Writer) error { return errors.New("http: request body too large") }},
		{Name: "boom", Handler: func(context.Context, []byte) ([]byte, error) { return nil, errors.New("kaput") }},
	} {
		if err := g.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	const text, trace = "text/plain; charset=utf-8", "*"
	for _, tc := range []struct {
		fn     string
		size   int
		status int
		want   map[string]string
	}{
		{"bytes", 64, 200, map[string]string{"Content-Type": text, "Content-Length": "69"}},
		{"stream", 64, 200, map[string]string{"Content-Type": text, "Content-Length": "64"}},
		{"long", 5000, 200, map[string]string{"Content-Type": text}},
		{"toolarge", 64, 413, map[string]string{"Content-Type": text, "Content-Length": "29", "X-Content-Type-Options": "nosniff"}},
		{"boom", 64, 500, map[string]string{"Content-Type": text, "Content-Length": "6", "X-Content-Type-Options": "nosniff"}},
	} {
		for _, warm := range []bool{false, true} {
			resp, err := http.Post(base+"/function/"+tc.fn, "application/octet-stream", strings.NewReader(strings.Repeat("a", tc.size)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			got := map[string]string{}
			for k, vs := range resp.Header {
				switch {
				case k == TraceIDHeader:
					got[k] = trace
				case k == "Content-Type", k == "Content-Length", k == "X-Content-Type-Options", strings.HasPrefix(k, "X-Hotc-"):
					got[k] = strings.Join(vs, ",")
				}
			}
			want := map[string]string{TraceIDHeader: trace, "X-Hotc-Reused": fmt.Sprint(warm)}
			if !warm {
				want[BootHeader] = "cold"
			}
			for k, v := range tc.want {
				want[k] = v
			}
			if resp.StatusCode != tc.status || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (warm=%v): %d %v\nwant %d %v", tc.fn, warm, resp.StatusCode, got, tc.status, want)
			}
		}
	}
}

func TestStopShutsInstancesDown(t *testing.T) {
	g := New(PoolConfig{})
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
