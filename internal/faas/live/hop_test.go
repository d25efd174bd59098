package live

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// connTracker wraps a gateway's dial hook: how many connections the
// hop opened, how many of them are still open, and how many deadlines
// were ever armed on them.
type connTracker struct {
	dials, open, deadlines atomic.Int64
}

type trackedConn struct {
	net.Conn
	t      *connTracker
	closed sync.Once
}

func (c *trackedConn) Close() error {
	c.closed.Do(func() { c.t.open.Add(-1) })
	return c.Conn.Close()
}

func (c *trackedConn) SetDeadline(d time.Time) error {
	c.t.deadlines.Add(1)
	return c.Conn.SetDeadline(d)
}

func (c *trackedConn) SetReadDeadline(d time.Time) error {
	c.t.deadlines.Add(1)
	return c.Conn.SetReadDeadline(d)
}

func (c *trackedConn) SetWriteDeadline(d time.Time) error {
	c.t.deadlines.Add(1)
	return c.Conn.SetWriteDeadline(d)
}

func trackConns(g *Gateway) *connTracker {
	t := &connTracker{}
	base := g.dial
	g.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		t.dials.Add(1)
		t.open.Add(1)
		return &trackedConn{Conn: conn, t: t}, nil
	}
	return t
}

// postHeader drives one request with extra headers through the gateway
// handler directly.
func postHeader(g *Gateway, name string, body io.Reader, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/function/"+name, body)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	g.handle(rec, req)
	return rec
}

// idleInstances snapshots the function's idle instances.
func idleInstances(g *Gateway, name string) []*instance {
	s := g.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*instance(nil), s.idle...)
}

// The request a small known-length body goes out as, byte for byte —
// head and body in one write, Content-Length declared, nothing chunked
// — and what one warm round trip allocates on the gateway's side. The
// peer is a canned responder that allocates nothing, so the count is
// the hop's alone (tracing sampled out: no traceparent). verify.sh
// runs the budget in its non-race alloc pass.
func TestHopRoundTripAllocBudget(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	addr := lis.Addr().String()
	payload := patternedPayload(64)
	want := append([]byte("POST / HTTP/1.1\r\nHost: "+addr+"\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: 64\r\n\r\n"), payload...)
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 64\r\n\r\n"), payload...)
	bad := []byte("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		got := make([]byte, len(want))
		for {
			// One read per request: a head and body split over two
			// writes would come up short here.
			if n, err := conn.Read(got); err != nil {
				return
			} else if !bytes.Equal(got[:n], want) {
				conn.Write(bad)
			} else {
				conn.Write(reply)
			}
		}
	}()

	c, err := NewGateway(true).dialHop(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(payload)
	ctx := context.Background()
	exchange := func() {
		body.Reset(payload)
		resp, err := c.roundTrip(ctx, body, int64(len(payload)), "")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != 64 {
			t.Fatalf("status %d, length %d: the request did not go out as %q", resp.StatusCode, resp.ContentLength, want)
		}
		if n, err := copyPooled(io.Discard, resp.Body); err != nil || n != 64 {
			t.Fatalf("body: %d bytes, %v", n, err)
		}
		if !c.finish() {
			t.Fatal("connection not reusable after a clean exchange")
		}
	}
	exchange()
	if !raceEnabled {
		// ReadResponse's share (response, header map and values, body
		// reader) plus the context hook.
		const budget = 11
		if allocs := testing.AllocsPerRun(200, exchange); allocs > budget {
			t.Errorf("one warm hop round trip allocates %.0f objects, budget %d", allocs, budget)
		}
	}
	c.close()
	<-served
}

// What the watchdog's handler is handed: a known-length inbound body
// arrives with its Content-Length and no Transfer-Encoding whether it
// went inline or through the body writer; only an unknown-length
// inbound body is chunked. All three come back intact.
func TestHopForwardsDeclaredLength(t *testing.T) {
	g := NewGateway(true)
	fn := Function{Name: "f", Stream: streamEcho}
	if err := g.Register(fn); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	post(t, base+"/function/f", "boot")

	// Re-specialize the now-idle watchdog with a handler that records
	// what it was sent before running the function.
	type seen struct {
		length int64
		te     []string
	}
	got := make(chan seen, 1)
	idleInstances(g, "f")[0].wd.Specialize(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- seen{r.ContentLength, r.TransferEncoding}
		serveFunction(w, r, fn, 0)
	}))

	payload := patternedPayload(256 << 10)
	for _, tc := range []struct {
		name    string
		body    io.Reader
		sent    []byte
		length  int64
		chunked bool
	}{
		{"inline", bytes.NewReader(payload[:64]), payload[:64], 64, false},
		{"streamed", bytes.NewReader(payload), payload, int64(len(payload)), false},
		{"unknown length", io.MultiReader(bytes.NewReader(payload)), payload, -1, true},
	} {
		resp, err := http.Post(base+"/function/f", "application/octet-stream", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(back, tc.sent) {
			t.Fatalf("%s: status %d, %d bytes back (want %d), err %v", tc.name, resp.StatusCode, len(back), len(tc.sent), err)
		}
		s := <-got
		if s.length != tc.length || (len(s.te) > 0) != tc.chunked {
			t.Fatalf("%s: watchdog saw ContentLength %d, Transfer-Encoding %v; want %d, chunked=%v",
				tc.name, s.length, s.te, tc.length, tc.chunked)
		}
	}
	if got := g.Stats().ColdStarts; got != 1 {
		t.Fatalf("ColdStarts = %d, want 1: every exchange must leave the connection reusable", got)
	}
}

// Eight mebibytes through the streaming builtins, full duplex: the
// handler answers while the body writer is still sending, so this
// deadlocks if the hop ever writes the whole request before reading.
func TestHopLargeFullDuplexBuiltins(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	payload := make([]byte, 8<<20)
	for i, b := range patternedPayload(len(payload)) {
		payload[i] = 'a' + b%26
	}
	for _, tc := range []struct {
		fn   string
		want []byte
	}{
		{"echo", payload},
		{"upper", bytes.ToUpper(payload)},
	} {
		if err := d.Deploy(DeploySpec{Name: tc.fn, Handler: tc.fn}); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // cold, then over the kept connection
			resp, err := http.Post(base+"/function/"+tc.fn, "text/plain", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s round %d: status %d, err %v", tc.fn, round, resp.StatusCode, err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("%s round %d: %d bytes back (want %d), integrity lost", tc.fn, round, len(got), len(tc.want))
			}
		}
	}
	if st := d.Stats(); st.ColdStarts != 2 || st.Reused != 2 {
		t.Fatalf("stats %+v, want 2 cold starts and 2 reuses", st)
	}
}

// A lease moves the connection with the watchdog: the rented boot and
// the renter's first warm hit dial nothing, and the lender's tainted
// struct is left holding no connection.
func TestLeaseMovesConnection(t *testing.T) {
	g := New(testSharing())
	conns := trackConns(g)
	for _, n := range []string{"lender", "renter"} {
		if err := g.Register(echoFn(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()

	postRec(t, g, "lender", "a")
	lent := idleInstances(g, "lender")[0]
	if rec := postRec(t, g, "renter", "b"); rec.Header().Get(BootHeader) != "rented" || rec.Body.String() != "echo:b" {
		t.Fatalf("boot %q body %q, want a rented echo", rec.Header().Get(BootHeader), rec.Body)
	}
	if rec := postRec(t, g, "renter", "c"); rec.Header().Get("X-Hotc-Reused") != "true" || rec.Body.String() != "echo:c" {
		t.Fatalf("renter's second request: reused %q body %q", rec.Header().Get("X-Hotc-Reused"), rec.Body)
	}
	if got := conns.dials.Load(); got != 1 {
		t.Fatalf("%d dials, want 1: the lender's boot is the only dial this watchdog ever needs", got)
	}
	if lent.hop != nil {
		t.Fatal("the tainted lender struct still holds the connection")
	}
}

// Stop with warm, rented and generic-handoff instances alive (and idle
// generics in the pool) closes every hop connection and strands no
// goroutine.
func TestStopClosesEveryHopConnection(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testSharing()
	cfg.Prefork, cfg.PreforkSize = true, 2
	g := New(cfg)
	conns := trackConns(g)
	for _, n := range []string{"lender", "renter", "solo1", "solo2"} {
		fn := echoFn(n, 0)
		fn.NoShare = n[0] == 's' // the solos boot their own instances
		if err := g.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	g.refillPrefork()
	waitIdleGenerics(t, g, 2)

	// The lender's boot specializes a generic, the renter leases it, and
	// the solos boot whichever way the refilling pool allows.
	for i, fn := range []string{"lender", "renter", "solo1", "solo2"} {
		rec := postRec(t, g, fn, "x")
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", fn, rec.Code)
		}
		if want := []string{"generic", "rented"}; i < 2 && rec.Header().Get(BootHeader) != want[i] {
			t.Fatalf("%s: boot %q, want %q", fn, rec.Header().Get(BootHeader), want[i])
		}
	}
	if got := conns.open.Load(); got != 3 {
		t.Fatalf("%d hop connections open before Stop, want one per live instance (3)", got)
	}
	g.Stop()
	if got := conns.open.Load(); got != 0 {
		t.Fatalf("%d hop connections still open after Stop", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("Stop leaked goroutines: %d alive, baseline %d:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A watchdog that dies under an idle instance costs the next request
// one 502: the instance is discarded, the failure is counted, nothing
// hangs and nothing is retried on a fresh connection.
func TestWatchdogDeathBetweenRequests(t *testing.T) {
	g := NewGateway(true)
	conns := trackConns(g)
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	postRec(t, g, "f", "a")
	idleInstances(g, "f")[0].wd.Stop()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postHeader(g, "f", bytes.NewReader([]byte("b")), nil) }()
	select {
	case rec := <-done:
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("status %d, want 502", rec.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request against a dead watchdog hung")
	}
	if got := g.ResilienceCounters()["proxy.failures"]; got != 1 {
		t.Fatalf("proxy.failures = %d, want 1", got)
	}
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatalf("warm = %d: the dead instance was re-pooled", got)
	}
	if got := conns.dials.Load(); got != 1 {
		t.Fatalf("%d dials: a failed POST must not be retried on a fresh connection", got)
	}
	if rec := postRec(t, g, "f", "c"); rec.Code != 200 || rec.Body.String() != "echo:c" {
		t.Fatalf("follow-up: status %d body %q", rec.Code, rec.Body)
	}
}

// Regression for the old http.Client's hidden 30 s Timeout: with no
// deadline configured nothing bounds a call but its own context. The
// old cap was a timer armed per request; here a held call arms no
// deadline of any length on its connection, so there is nothing left
// to expire at 30 s, and it completes as a success. A request that
// does carry a deadline gets exactly that bound.
func TestNoHiddenCallTimeout(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	g := New(PoolConfig{BreakerThreshold: 1, BreakerOpenFor: time.Hour})
	conns := trackConns(g)
	if err := g.Register(blockingFn("f", entered, release)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postHeader(g, "f", bytes.NewReader([]byte("x")), nil) }()
	<-entered
	time.Sleep(50 * time.Millisecond) // the call is parked in the hop's response read
	if got := conns.deadlines.Load(); got != 0 {
		t.Fatalf("%d deadlines armed on the hop of a call with no deadline", got)
	}
	release <- struct{}{}
	if rec := <-done; rec.Code != 200 || rec.Body.String() != "x" {
		t.Fatalf("held call: status %d body %q", rec.Code, rec.Body)
	}
	if got := conns.deadlines.Load(); got != 0 {
		t.Fatalf("%d deadlines armed on the hop by a completed call", got)
	}

	// The configured bound is the only one: 30 ms means 504 at 30 ms,
	// and the watchdog is not blamed for it.
	go func() {
		done <- postHeader(g, "f", bytes.NewReader([]byte("y")), map[string]string{DeadlineHeader: "30"})
	}()
	<-entered
	time.Sleep(60 * time.Millisecond)
	release <- struct{}{} // past the deadline: lets the discarded watchdog stop at once
	if rec := <-done; rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadlined call: status %d, want 504", rec.Code)
	}
	if res := g.ResilienceCounters(); res["proxy.failures"] != 0 || res["breaker.trips"] != 0 {
		t.Fatalf("the breaker was fed: %v", res)
	}
}

// The deadline must reach a body writer blocked on a full socket: the
// handler never reads, 16 MiB cannot fit in the loopback buffers, and
// the request still answers 504 (once the discarded watchdog's handler
// has returned) with the writer gone and the instance discarded.
func TestDeadlineAbortsBlockedBodyWriter(t *testing.T) {
	g := New(PoolConfig{BreakerThreshold: 1, BreakerOpenFor: time.Hour})
	conns := trackConns(g)
	if err := g.Register(Function{Name: "deaf", Stream: func(io.Reader, io.Writer) error {
		time.Sleep(100 * time.Millisecond) // well past the deadline
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	for _, body := range []io.Reader{
		bytes.NewReader(make([]byte, 16<<20)),                 // declared length
		io.MultiReader(bytes.NewReader(make([]byte, 16<<20))), // unknown: chunked
	} {
		start := time.Now()
		rec := postHeader(g, "deaf", body, map[string]string{DeadlineHeader: "50"})
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", rec.Code)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("504 after %v: the deadline did not reach the blocked writer", took)
		}
	}
	if got := conns.open.Load(); got != 0 {
		t.Fatalf("%d hop connections open after both calls were abandoned", got)
	}
	if got := g.WarmInstances("deaf"); got != 0 {
		t.Fatalf("warm = %d: an abandoned instance was re-pooled", got)
	}
	if res := g.ResilienceCounters(); res["proxy.failures"] != 0 {
		t.Fatalf("a client deadline fed the breaker: %v", res)
	}
}

// A handler that answers without reading its (large) request leaves a
// connection that cannot be reused: the response still reaches the
// client, and the instance re-dials before it re-enters the pool, so
// the next warm hit finds a working connection.
func TestEarlyResponseRedials(t *testing.T) {
	g := NewGateway(true)
	conns := trackConns(g)
	if err := g.Register(Function{Name: "terse", Stream: func(_ io.Reader, w io.Writer) error {
		_, err := io.WriteString(w, "no thanks")
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	for i, wantReused := range []string{"false", "true"} {
		rec := postHeader(g, "terse", bytes.NewReader(make([]byte, 16<<20)), nil)
		if rec.Code != 200 || rec.Body.String() != "no thanks" {
			t.Fatalf("round %d: status %d body %q", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Hotc-Reused"); got != wantReused {
			t.Fatalf("round %d: X-Hotc-Reused = %q, want %q", i, got, wantReused)
		}
		if dials, open := conns.dials.Load(), conns.open.Load(); dials != int64(i+2) || open != 1 {
			t.Fatalf("round %d: %d dials, %d open; want %d dials (boot + one re-dial per round) and 1 open", i, dials, open, i+2)
		}
	}
	if got := g.ResilienceCounters()["proxy.failures"]; got != 0 {
		t.Fatalf("proxy.failures = %d for a function that merely ignored its input", got)
	}
}

// A request body shorter than its declared length can never be
// completed: the writer gives up, the blocked response read is woken,
// and the instance is discarded rather than left waiting.
func TestShortBodyFailsTheExchange(t *testing.T) {
	g := NewGateway(true)
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	const declared = 64 << 10
	req := httptest.NewRequest("POST", "/function/f", bytes.NewReader(make([]byte, declared/2)))
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.handle(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a short body hung the exchange")
	}
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", rec.Code)
	}
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatalf("warm = %d: the instance was re-pooled with a half-sent request on its connection", got)
	}
}

// BenchmarkHopRoundTrip is the hop alone against a real watchdog: one
// warm exchange, no handle() around it.
func BenchmarkHopRoundTrip(b *testing.B) {
	echo := Function{Name: "f", Handler: func(p []byte) ([]byte, error) { return p, nil }}
	for _, size := range []int{64, 64 << 10} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			inst, _, err := NewGateway(true).bootInstance(context.Background(), echo)
			if err != nil {
				b.Fatal(err)
			}
			defer inst.stop()
			payload := bytes.Repeat([]byte("z"), size)
			body := bytes.NewReader(payload)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(payload)
				resp, err := inst.hop.roundTrip(ctx, body, int64(size), "")
				if err != nil {
					b.Fatal(err)
				}
				if n, err := copyPooled(io.Discard, resp.Body); err != nil || n != int64(size) {
					b.Fatalf("echo: %d bytes, %v", n, err)
				}
				if !inst.hop.finish() {
					b.Fatal("connection not reusable after a clean exchange")
				}
			}
		})
	}
}
