package router

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/faas/live"
	"hotc/internal/hop"
)

// countingNode serves handler and counts the connections it holds open.
func countingNode(t *testing.T, handler http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var open atomic.Int64
	srv := httptest.NewUnstartedServer(handler)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &open
}

// echoNode answers probes with no warmth and echoes invocations. It
// reads the whole body first: net/http's server discards what a
// handler has not read once the response head is out.
func echoNode(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/system/stats" {
		io.WriteString(w, "{}")
		return
	}
	b, _ := io.ReadAll(r.Body)
	w.Write(b)
}

// waitOpen waits for the node to hold want connections open.
func waitOpen(t *testing.T, open *atomic.Int64, want int64, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); open.Load() != want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: the node holds %d connections open, want %d", what, open.Load(), want)
		}
	}
}

// route drives one invocation through the router's handler.
func route(rt *Router, method, name, body string, hdr http.Header) (rec *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, "/function/"+name, strings.NewReader(body))
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	rec = httptest.NewRecorder()
	defer func() {
		// The front door drops the connection on this panic; the
		// recorder keeps what was written before it.
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			panic(v)
		}
	}()
	rt.Routes().ServeHTTP(rec, req)
	return rec
}

// Stop leaks nothing: neither the invocations' connections nor the
// probes' stay open to the node once the router has stopped.
func TestStopLeaksNoUpstreamConnection(t *testing.T) {
	srv, open := countingNode(t, echoNode)
	rt, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base, err := rt.Start() // probes once
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp := invoke(t, base, "fn", "x")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invocation %d = %d", i, resp.StatusCode)
		}
	}
	if open.Load() == 0 {
		t.Fatal("the node holds no connection open before Stop: the test proves nothing")
	}
	rt.Stop()
	waitOpen(t, open, 0, "after Stop")
}

// A node that leaves takes its idle connections with it, and one that
// was in flight when it left is closed when its exchange ends.
func TestLeaveClosesTheNodesConnections(t *testing.T) {
	holding, release := make(chan struct{}), make(chan struct{})
	srv, open := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Hold") != "" {
			holding <- struct{}{}
			<-release
		}
		echoNode(w, r)
	})
	rt, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	if rec := route(rt, http.MethodPost, "fn", "x", nil); rec.Code != http.StatusOK {
		t.Fatalf("invocation = %d", rec.Code)
	}
	held := make(chan int)
	go func() { held <- route(rt, http.MethodPost, "fn", "x", http.Header{"X-Hold": {"1"}}).Code }()
	<-holding
	waitOpen(t, open, 1, "with the exchange held") // on the connection the first left idle
	if !rt.Leave(srv.URL) {
		t.Fatal("Leave: not a member")
	}
	close(release)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("the exchange in flight at Leave = %d, want 200", code)
	}
	waitOpen(t, open, 0, "after Leave")
}

// A pooled connection the node closed while it sat idle fails before
// any byte of a response: the router sends the request again on a
// fresh connection, and the node is not charged a miss.
func TestRouterRedialsStaleConnection(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			// One exchange per connection, then a close the response
			// does not announce.
			go func() {
				defer conn.Close()
				req, err := http.ReadRequest(bufio.NewReader(conn))
				if err != nil {
					return
				}
				io.Copy(io.Discard, req.Body)
				io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
			}()
		}
	}()
	rt, err := New(Config{Nodes: []string{lis.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	n := rt.nodes["http://"+lis.Addr().String()]
	for i := 0; i < 3; i++ {
		rec := route(rt, http.MethodPost, "fn", "body", nil)
		if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
			t.Fatalf("invocation %d = %d %q, want 200 ok", i, rec.Code, rec.Body)
		}
		// The first dials fresh; each later one finds the connection the
		// node closed and dials once more.
		if got := wireBook(rt.reg, "hotc_wire_redials_total", "router"); got != float64(i) {
			t.Errorf("after invocation %d hotc_wire_redials_total{role=\"router\"} = %v, want %d", i, got, i)
		}
		n.mu.Lock()
		idle := len(n.idle)
		n.mu.Unlock()
		if idle != 1 {
			t.Fatalf("after invocation %d the node has %d idle connections, want the one it will close", i, idle)
		}
	}
	if got := accepted.Load(); got != 3 {
		t.Errorf("the node accepted %d connections, want 3", got)
	}
	if st := rt.Nodes()[0]; !st.Healthy || st.Misses != 0 {
		t.Errorf("node healthy=%v with %d misses, want healthy with none", st.Healthy, st.Misses)
	}
	if got := rt.mSpills.Value(); got != 0 {
		t.Errorf("hotc_router_spill_attempts_total = %v, want 0", got)
	}
}

// An https:// member is dialed through crypto/tls and trusted by the
// roots of the router's TLS configuration.
func TestRouterForwardsToHTTPSMember(t *testing.T) {
	srv := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.TLS == nil {
			http.Error(w, "plaintext", http.StatusBadRequest)
			return
		}
		echoNode(w, r)
	}))
	t.Cleanup(srv.Close)
	rt, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.tlsConf.RootCAs = srv.Client().Transport.(*http.Transport).TLSClientConfig.RootCAs
	t.Cleanup(rt.Stop)
	for i := 0; i < 2; i++ {
		if rec := route(rt, http.MethodPost, "fn", "sealed", nil); rec.Code != http.StatusOK || rec.Body.String() != "sealed" {
			t.Fatalf("invocation %d = %d %q, want 200 sealed", i, rec.Code, rec.Body)
		}
	}

	// Without those roots the member's certificate is not trusted.
	untrusting, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(untrusting.Stop)
	if rec := route(untrusting, http.MethodPost, "fn", "sealed", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("invocation with an untrusted certificate = %d, want 503", rec.Code)
	}
}

// curl sends Expect: 100-continue with any body over 1 KiB. The router
// answers the 100 itself and forwards the body without the Expect, so
// the echo comes back whole; the hop-by-hop headers stop at the router
// and the end-to-end ones reach the node.
func TestRoutedExpectContinue(t *testing.T) {
	var mu sync.Mutex
	var seen http.Header
	srv, _ := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/system/stats" {
			mu.Lock()
			seen = r.Header.Clone()
			mu.Unlock()
		}
		echoNode(w, r)
	})
	_, base := startRouter(t, Config{Nodes: []string{srv.URL}})

	payload := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	req, err := http.NewRequest(http.MethodPost, base+"/function/fn", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		"Expect":             "100-continue",
		"Connection":         "X-Secret",
		"X-Secret":           "hop-by-hop by name",
		"Te":                 "trailers",
		"Upgrade":            "websocket",
		"X-Hotc-Tenant":      "acme",
		"X-Hotc-Deadline-Ms": "5000",
		"Content-Type":       "application/octet-stream",
	} {
		req.Header.Set(k, v)
	}
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: 5 * time.Second}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("echo = %d, %d of %d bytes (%v)", resp.StatusCode, len(got), len(payload), err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []string{"Expect", "Connection", "X-Secret", "Te", "Upgrade"} {
		if v, ok := seen[k]; ok {
			t.Errorf("%s: %q reached the node", k, v)
		}
	}
	for k, want := range map[string]string{
		"X-Hotc-Tenant":  "acme",
		"Content-Type":   "application/octet-stream",
		"Content-Length": strconv.Itoa(len(payload)),
	} {
		if got := seen.Get(k); got != want {
			t.Errorf("%s reached the node as %q, want %q", k, got, want)
		}
	}
	// The deadline goes on as what is left of the client's budget.
	if ms, err := strconv.Atoi(seen.Get(live.DeadlineHeader)); err != nil || ms < 1 || ms > 5000 {
		t.Errorf("%s reached the node as %q, want what is left of 5000", live.DeadlineHeader, seen.Get(live.DeadlineHeader))
	}
}

// The function name reaches the router decoded. Forwarded as it is, a
// CR LF or a space in it ended the request line early, and what
// followed went to the node as headers or as a request of its own on
// the pooled connection. Escaped again, it is one request for the name
// the client asked for, and the next request is the next the node
// parses. A name with a '/' in it is no function name: the router
// answers 404 and sends the node nothing.
func TestRoutedNameCannotSmuggle(t *testing.T) {
	var mu sync.Mutex
	var seen []fuzzRecord
	srv, _ := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/system/stats" {
			mu.Lock()
			seen = append(seen, fuzzRecord{method: r.Method, path: r.URL.Path, header: r.Header.Clone()})
			mu.Unlock()
		}
		echoNode(w, r)
	})
	_, base := startRouter(t, Config{Nodes: []string{srv.URL}})
	for _, name := range []string{
		"x%0D%0AX-Evil:%201%0D%0A%0D%0AOPTIONS%20*%20HTTP%0D%0A",
		"x%0D%0AX-Evil:%201%0D%0A%0D%0AGET%20/function/y%20HTTP/1.1%0D%0AHost:%20n",
		"a%20b",
		"a%3Fb%25",
	} {
		mu.Lock()
		seen = nil
		mu.Unlock()
		decoded, _ := url.PathUnescape(name)
		var want []string
		if !strings.Contains(decoded, "/") {
			want = append(want, "/function/"+decoded)
		}
		want = append(want, "/function/sentinel")
		for _, target := range []string{name, "sentinel"} {
			resp := invoke(t, base, target, "x")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		mu.Lock()
		got := seen
		mu.Unlock()
		var paths []string
		for _, r := range got {
			paths = append(paths, r.path)
			if r.header.Get("X-Evil") != "" {
				t.Errorf("name %q: a header in the name reached the node", name)
			}
		}
		if !reflect.DeepEqual(paths, want) {
			t.Errorf("name %q: the node parsed %q, want %q", name, paths, want)
		}
	}
}

// A reply the node cuts short — half of its declared length, then a
// close — is booked once the relay is over: outcome="error" and a miss
// against the node, as a transport error is, not the placement's
// outcome.
func TestCutRelayBookedError(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := http.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n"+strings.Repeat("x", 32))
	}()
	rt, err := New(Config{Nodes: []string{lis.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	if rec := route(rt, http.MethodPost, "fn", "x", nil); rec.Body.Len() != 32 {
		t.Fatalf("the client got %d bytes, want the 32 the node sent", rec.Body.Len())
	}
	for _, o := range []string{"warm", "hash", "spill", "rr", "no_node", "error", "canceled"} {
		want := 0.0
		if o == "error" {
			want = 1
		}
		if got := rt.mRequests.With(o).Value(); got != want {
			t.Errorf(`hotc_router_requests_total{outcome=%q} = %v, want %v`, o, got, want)
		}
	}
	if st := rt.Nodes()[0]; st.Misses != 1 {
		t.Errorf("the node has %d misses, want 1", st.Misses)
	}
}

// The router counts the bodies it sends, its request to the node and its
// reply to the client, by the way each went. A 64 B echo is copied both
// ways. A 1 MiB and a 2 MiB echo splice their reply, the node's wire
// body, socket to socket, and copy their request: the 1 MiB one from the
// buffer a spill would replay, the 2 MiB one behind the bytes read to
// find it too large for that buffer.
func TestRouterWireBodyBytes(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1}})
	deployVia(t, base, "echo", "echo", 0)
	send := func(n int) {
		payload := strings.Repeat("x", n)
		resp := invoke(t, base, "echo", payload)
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(got) != payload {
			t.Fatalf("echo: %d bytes back, %v", len(got), err)
		}
	}
	send(64) // the cold boot and the connections
	book := func(path string) float64 { return wireBook(rt.reg, "hotc_wire_body_bytes_total", "router", path) }
	for _, tc := range []struct{ size, copied, spliced int }{
		{64, 2 * 64, 0},
		{1 << 20, 1 << 20, 1 << 20},
		{2 << 20, 2 << 20, 2 << 20},
	} {
		copied, spliced := book("copied"), book("spliced")
		send(tc.size)
		copied, spliced = book("copied")-copied, book("spliced")-spliced
		if copied != float64(tc.copied) || spliced != float64(tc.spliced) {
			t.Errorf("a %d B echo moved the router's books by %v copied and %v spliced, want %d and %d",
				tc.size, copied, spliced, tc.copied, tc.spliced)
		}
	}
}

// A reply the node cuts mid-body reaches the router's client cut too:
// a node that sends a 200, chunked, one 4 KiB chunk and then closes
// leaves the client a read error, not a complete 4 KiB body, and the
// router books an error and a miss.
func TestCutRelayReachesTheClientCut(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := http.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1000\r\n"+strings.Repeat("x", 4<<10)+"\r\n")
	}()
	rt, err := New(Config{Nodes: []string{lis.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	// The router's front door without Start's probe, which would take
	// the node's one reply.
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &hop.Server{Handler: rt.Routes(), Front: true}
	go srv.Serve(front)
	t.Cleanup(srv.Stop)
	resp, err := http.Post("http://"+front.Addr().String()+"/function/fn", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("the client read a whole %d-byte reply (status %d), want a read error", len(body), resp.StatusCode)
	}
	if got := rt.mRequests.With("error").Value(); got != 1 {
		t.Errorf(`hotc_router_requests_total{outcome="error"} = %v, want 1`, got)
	}
	if st := rt.Nodes()[0]; st.Misses != 1 {
		t.Errorf("the node has %d misses, want 1", st.Misses)
	}
}

// Probes and invocations share one pool per node: the connection a
// poll leaves idle carries the next invocation.
func TestPollThenInvokeUsesOneConnection(t *testing.T) {
	var accepted atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(echoNode))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	rt, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	rt.PollOnce()
	if st := rt.Nodes()[0]; !st.Healthy || st.Misses != 0 {
		t.Fatalf("node healthy=%v with %d misses after the poll, want healthy with none", st.Healthy, st.Misses)
	}
	if rec := route(rt, http.MethodPost, "fn", "x", nil); rec.Code != http.StatusOK || rec.Body.String() != "x" {
		t.Fatalf("invocation = %d %q, want 200 x", rec.Code, rec.Body)
	}
	if got := accepted.Load(); got != 1 {
		t.Errorf("the node accepted %d connections, want 1", got)
	}
}

// Every exchange gives its connection back once: a relay, a spill past
// a node that answers 429, the last 429 relayed, a probe, a deploy
// fan-out and a listing, each run three times in turn, leave each node
// one idle connection and cost it one accept in all, with no re-dial.
func TestEverySendCallerReusesItsConnection(t *testing.T) {
	node := func() (*httptest.Server, *atomic.Int64) {
		var accepted atomic.Int64
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			switch r.URL.Path {
			case "/system/stats":
				io.WriteString(w, "{}")
			case "/system/functions":
				if r.Method == http.MethodPost {
					w.WriteHeader(http.StatusAccepted)
				}
				io.WriteString(w, `["fn"]`)
			case "/function/busy":
				http.Error(w, "saturated", http.StatusTooManyRequests)
			default:
				io.WriteString(w, "x")
			}
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				accepted.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv, &accepted
	}
	a, acceptedA := node()
	b, acceptedB := node()
	rt, err := New(Config{Nodes: []string{a.URL, b.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		rt.Routes().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	steps := []struct {
		what string
		run  func() int
		want int
	}{
		{"a probe of each node", func() int { rt.PollOnce(); return http.StatusOK }, http.StatusOK},
		{"a relay", func() int { return route(rt, http.MethodPost, "fn", "x", nil).Code }, http.StatusOK},
		{"a spill, then the last 429 relayed", func() int { return route(rt, http.MethodPost, "busy", "x", nil).Code }, http.StatusTooManyRequests},
		{"a deploy fan-out", func() int { return serve(http.MethodPost, "/system/functions", `{"name":"fn"}`) }, http.StatusAccepted},
		{"a listing", func() int { return serve(http.MethodGet, "/system/functions", "") }, http.StatusOK},
	}
	for round := 0; round < 3; round++ {
		for _, s := range steps {
			if got := s.run(); got != s.want {
				t.Fatalf("round %d, %s: %d, want %d", round, s.what, got, s.want)
			}
			for _, st := range rt.Nodes() {
				n := rt.nodes[st.URL]
				n.mu.Lock()
				idle := len(n.idle)
				n.mu.Unlock()
				if idle != 1 {
					t.Fatalf("round %d, after %s: %s has %d idle connections, want 1", round, s.what, st.URL, idle)
				}
			}
		}
	}
	if got := rt.mSpills.Value(); got != 3 {
		t.Errorf("hotc_router_spill_attempts_total = %v, want 3", got)
	}
	if na, nb := acceptedA.Load(), acceptedB.Load(); na != 1 || nb != 1 {
		t.Errorf("the nodes accepted %d and %d connections, want 1 each", na, nb)
	}
	if got := wireBook(rt.reg, "hotc_wire_redials_total", "router"); got != 0 {
		t.Errorf(`hotc_wire_redials_total{role="router"} = %v, want 0`, got)
	}
}

// The router relays what the node answers, as it is: a redirect is not
// followed, and neither Accept-Encoding nor decompression is added.
func TestRoutedReplyRelayedAsIs(t *testing.T) {
	var mu sync.Mutex
	var acceptEncoding []string
	srv, _ := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/system/stats":
			io.WriteString(w, "{}")
		case "/function/moved":
			http.Redirect(w, r, "/function/elsewhere", http.StatusFound)
		case "/function/packed":
			mu.Lock()
			acceptEncoding = r.Header.Values("Accept-Encoding")
			mu.Unlock()
			w.Header().Set("Content-Encoding", "gzip")
			io.WriteString(w, "not really gzip")
		default:
			http.Error(w, "redirect followed", http.StatusTeapot)
		}
	})
	rt, err := New(Config{Nodes: []string{srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	rec := route(rt, http.MethodPost, "moved", "x", nil)
	if rec.Code != http.StatusFound || rec.Header().Get("Location") != "/function/elsewhere" {
		t.Errorf("redirect relayed as %d, Location %q; want 302 to /function/elsewhere", rec.Code, rec.Header().Get("Location"))
	}
	rec = route(rt, http.MethodPost, "packed", "x", nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" || rec.Body.String() != "not really gzip" {
		t.Errorf("encoded reply relayed as %d, Content-Encoding %q, body %q; want it unchanged",
			rec.Code, rec.Header().Get("Content-Encoding"), rec.Body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acceptEncoding) != 0 {
		t.Errorf("the node was sent Accept-Encoding %q the client never sent", acceptEncoding)
	}
}

// sinkWriter is a ResponseWriter that allocates nothing of its own. Its
// ReadFrom stands for the server's, which copies through a pooled
// buffer.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
	buf  [512]byte
}

func (w *sinkWriter) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	for {
		k, err := r.Read(w.buf[:])
		w.n += k
		n += int64(k)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

func (w *sinkWriter) Header() http.Header  { return w.h }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// What one routed forward and its relay allocate: placement, the
// request head on a pooled connection, the node's response parsed and
// copied to the client. The node is a canned responder that allocates
// nothing, so the count is the router's alone. verify.sh runs the
// budget in its non-race alloc pass.
func TestRouterForwardAllocBudget(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 64\r\n\r\n" + strings.Repeat("x", 64))
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4<<10)
		for {
			// The head and its 64-byte body leave the router in one
			// write, so one read is one request.
			if _, err := conn.Read(buf); err != nil {
				return
			}
			conn.Write(reply)
		}
	}()
	rt, err := New(Config{Nodes: []string{lis.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	payload := bytes.NewReader(make([]byte, 64))
	req := httptest.NewRequest(http.MethodPost, "/function/echo", nil)
	req.Body, req.ContentLength = io.NopCloser(payload), 64
	req.Header.Set("Content-Type", "application/octet-stream")
	w := &sinkWriter{h: http.Header{}}
	forward := func() {
		payload.Seek(0, io.SeekStart)
		clear(w.h)
		w.code, w.n = 0, 0
		rt.handleFunction(w, req)
		if w.code != http.StatusOK || w.n != 64 {
			t.Fatalf("routed forward = %d with %d bytes, want 200 with 64", w.code, w.n)
		}
	}
	forward()
	if !raceEnabled {
		const budget = 19
		if allocs := testing.AllocsPerRun(200, forward); allocs > budget {
			t.Errorf("one routed forward allocates %.0f objects, budget %d", allocs, budget)
		}
	}
}

// fuzzRecord is one request as a router handler or the node saw it;
// answered marks a handler's request the router answered from the node.
type fuzzRecord struct {
	method, path string
	header       http.Header
	answered     bool
}

// hopByHopFor is what the router must not forward of h: the hop-by-hop
// set, the headers Connection names, Expect, and the framing and trace
// context it writes itself.
func hopByHopFor(h http.Header) map[string]bool {
	drop := map[string]bool{}
	for _, k := range []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade", "Expect", "Host", "Content-Length", "Traceparent"} {
		drop[k] = true
	}
	for _, v := range h["Connection"] {
		for _, opt := range strings.Split(v, ",") {
			drop[http.CanonicalHeaderKey(strings.TrimSpace(opt))] = true
		}
	}
	return drop
}

// FuzzRoutedHead sends a request with a fuzzed method, function name
// (as it stands, escaped, in the request line), two fuzzed header
// fields and a body of fuzzed length, as raw bytes, to a router whose
// one node is a canned upstream that parses every request it is sent.
// Every request the router's handler forwards reaches the node exactly
// once, and every one it answers from the node did, as one request, for
// the function the handler was asked for,
// with the handler's headers minus the hop-by-hop set and a deadline
// budget cut to what is left of it; a plain request
// after it is the next thing the node parses, so nothing was smuggled
// onto the pooled connection; nothing panics.
func FuzzRoutedHead(f *testing.F) {
	for _, seed := range []struct {
		method, name, k1, v1, k2, v2 string
		body                         uint16
	}{
		{"POST", "f", "X-Hotc-Tenant", "acme", "Content-Type", "text/plain", 64},
		{"POST", "f", "X-Hotc-Tenant", "acme", "X-Hotc-Deadline-Ms", "250", 40 << 10}, // streamed body
		{"GET", "f", "X-Hotc-Deadline-Ms", "100", "Te", "trailers", 0},
		{"HEAD", "f", "X-Hotc-Tenant", "b", "Accept", "*/*", 0},
		{"POST", "f", "Expect", "100-continue", "X-Hotc-Tenant", "c", 4 << 10},
		{"POST", "f", "Connection", "X-A, keep-alive", "X-A", "secret", 16},
		{"PUT", "f", "Upgrade", "websocket", "Keep-Alive", "timeout=5", 10},
		{"POST", "f", "Proxy-Connection", "keep-alive", "Trailer", "X-T", 8},
		{"POST", "f", "Transfer-Encoding", "chunked", "X-B", "1", 8},
		{"POST", "f", "X-A", "v\r\nX-Smuggled: 1", "X-Hotc-Tenant", "d", 5},
		{"POST", "f", "X-C", "x\r\n\r\nGET /function/f HTTP/1.1\r\nHost: r", "X-D", "y", 0},
		{"DELETE", "f", "Traceparent", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01", "X-E", "", 0},
		{"POST", "f", "Content-Length", "3", "X-F", "z", 7},
		{"POST", "x%0D%0AX-Evil:%201%0D%0A%0D%0AOPTIONS%20*%20HTTP%0D%0A", "X-G", "1", "X-H", "2", 4}, // a header and a request in the name
		{"POST", "x%0D%0AX-Evil:%201%0D%0A%0D%0AGET%20/function/y%20HTTP/1.1%0D%0AHost:%20n", "X-G", "1", "X-H", "2", 4},
		{"POST", "a%20b", "X-G", "1", "X-H", "2", 4},
		{"GET", "%00%7F%C3%A9", "X-G", "1", "X-H", "2", 0},  // a NUL, a DEL and a non-ASCII letter
		{"POST", "a%3Fb%23c%25", "X-G", "1", "X-H", "2", 1}, // '?', '#' and '%' in the name
		{"POST", "f?q=1", "X-G", "1", "X-H", "2", 1},        // a query the node is not sent
	} {
		f.Add(seed.method, seed.name, seed.k1, seed.v1, seed.k2, seed.v2, seed.body)
	}

	// The node: parse every request on every connection, book it, answer.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer lis.Close()
	var mu sync.Mutex
	var upstream []fuzzRecord
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					if _, err := io.Copy(io.Discard, req.Body); err != nil {
						return
					}
					mu.Lock()
					upstream = append(upstream, fuzzRecord{method: req.Method, path: req.URL.Path, header: req.Header})
					mu.Unlock()
					reply := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
					if req.Method == http.MethodHead {
						reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
					}
					io.WriteString(conn, reply)
				}
			}()
		}
	}()
	rt, err := New(Config{Nodes: []string{lis.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Stop()
	// The router behind a front that numbers and books each request it
	// routes. The front reads the client's body first, so a client still
	// owing body bytes is never mistaken for a routed exchange that hangs.
	var handled []fuzzRecord
	var seq, active atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(b))
		active.Add(1)
		defer active.Add(-1)
		r.Header.Set("X-Fuzz-Seq", strconv.FormatInt(seq.Add(1), 10))
		mu.Lock()
		i := len(handled)
		handled = append(handled, fuzzRecord{method: r.Method, path: r.URL.Path, header: r.Header.Clone()})
		mu.Unlock()
		rt.Routes().ServeHTTP(w, r)
		mu.Lock()
		handled[i].answered = w.Header().Get(NodeHeader) != ""
		mu.Unlock()
	}))
	defer front.Close()

	// send writes raw to the front and reads until the front hangs up,
	// which a Connection: close in raw asks it to do after its answer. A
	// front still waiting for bytes raw promised is no failure of the
	// router's; a routed exchange that never ends is.
	send := func(t *testing.T, raw string) {
		conn, err := net.Dial("tcp", front.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.WriteString(conn, raw); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, conn); err != nil && active.Load() > 0 {
			t.Fatalf("a routed exchange was still running after 2s: %v", err)
		}
	}
	// since returns what was booked after the given counts.
	since := func(fromHandled, fromUpstream int) (saw, got []fuzzRecord) {
		mu.Lock()
		defer mu.Unlock()
		return append(saw, handled[fromHandled:]...), append(got, upstream[fromUpstream:]...)
	}

	f.Fuzz(func(t *testing.T, method, name, k1, v1, k2, v2 string, bodyLen uint16) {
		n := int(min(bodyLen, 48<<10))
		raw := method + " /function/" + name + " HTTP/1.1\r\nHost: router\r\nConnection: close\r\n" +
			k1 + ": " + v1 + "\r\n" + k2 + ": " + v2 + "\r\n" +
			"Content-Length: " + strconv.Itoa(n) + "\r\n\r\n" + strings.Repeat("b", n)
		mu.Lock()
		fromHandled, fromUpstream := len(handled), len(upstream)
		mu.Unlock()
		send(t, raw)
		saw, got := since(fromHandled, fromUpstream)

		bySeq := map[string]fuzzRecord{}
		for _, h := range saw {
			bySeq[h.header.Get("X-Fuzz-Seq")] = h
		}
		forwarded := map[string]bool{}
		for _, up := range got {
			id := up.header.Get("X-Fuzz-Seq")
			h, ok := bySeq[id]
			if !ok {
				t.Fatalf("the node parsed a request no handler forwarded: %s %v", up.method, up.header)
			}
			if forwarded[id] {
				t.Fatalf("request %s reached the node twice", id)
			}
			forwarded[id] = true
			if up.method != h.method || up.path != h.path {
				t.Fatalf("request %s: %s %q reached the node as %s %q", id, h.method, h.path, up.method, up.path)
			}
			if tp := up.header["Traceparent"]; len(tp) != 1 {
				t.Fatalf("request %s reached the node with traceparent %q, want the router's one", id, tp)
			}
			drop := hopByHopFor(h.header)
			want := http.Header{}
			for k, vs := range h.header {
				if !drop[k] {
					want[k] = vs
				}
			}
			have := up.header.Clone()
			delete(have, "Content-Length")
			delete(have, "Traceparent")
			// A deadline budget goes on as what is left of it; any other
			// value goes on as it came.
			if sent, err := strconv.ParseInt(h.header.Get(live.DeadlineHeader), 10, 64); err == nil && sent > 0 && sent <= math.MaxInt64/int64(time.Millisecond) {
				left := have.Values(live.DeadlineHeader)
				if ms, err := strconv.ParseInt(strings.Join(left, ","), 10, 64); err != nil || ms < 1 || ms > sent {
					t.Fatalf("request %s: a %d ms deadline reached the node as %q, want what is left of it", id, sent, left)
				}
				delete(have, live.DeadlineHeader)
				delete(want, live.DeadlineHeader)
			}
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("request %s reached the node with\n%v\nwant the handler's minus the hop-by-hop set:\n%v", id, have, want)
			}
		}
		for id, h := range bySeq {
			if h.answered && !forwarded[id] {
				t.Fatalf("request %s: the router relayed a node's answer to %s %q, which the node never parsed", id, h.method, h.path)
			}
		}

		// The next request through the router is the next the node parses.
		mu.Lock()
		fromHandled, fromUpstream = len(handled), len(upstream)
		mu.Unlock()
		send(t, "GET /function/f HTTP/1.1\r\nHost: router\r\nConnection: close\r\nX-Sentinel: 1\r\n\r\n")
		_, after := since(fromHandled, fromUpstream)
		if len(after) != 1 || after[0].header.Get("X-Sentinel") != "1" {
			t.Fatalf("a plain request after %q: the node parsed %d requests, %v", raw, len(after), after)
		}
	})
}

// A member's URL names what an invocation dials and says: the scheme's
// port when the URL has none, the URL's host as Host, and its escaped
// path as the prefix of /function/. A URL whose parts would reach the
// wire as something else is no member: Join refuses it.
func TestNodeDialAddress(t *testing.T) {
	for _, tc := range []struct{ url, key, addr, host, path string }{
		{"http://n1:8080", "http://n1:8080", "n1:8080", "n1:8080", ""},
		{"n1:8080/", "http://n1:8080", "n1:8080", "n1:8080", ""},
		{"http://n1", "http://n1", "n1:80", "n1", ""},
		{"https://n1", "https://n1", "n1:443", "n1", ""},
		{"http://[::1]", "http://[::1]", "[::1]:80", "[::1]", ""},
		{"http://[::1]:9", "http://[::1]:9", "[::1]:9", "[::1]:9", ""},
		{"http://n1:8080/hotc", "http://n1:8080/hotc", "n1:8080", "n1:8080", "/hotc"},
		{"http://n1:8080/a b", "http://n1:8080/a%20b", "n1:8080", "n1:8080", "/a%20b"},
	} {
		u, err := parseMember(tc.url)
		if err != nil {
			t.Errorf("%s: %v", tc.url, err)
			continue
		}
		n := newNode(u)
		if n.url != tc.key || n.addr != tc.addr || n.host != tc.host || n.path != tc.path || n.tls != strings.HasPrefix(tc.url, "https") {
			t.Errorf("%s: member %q dials %q (tls %v) with Host %q under %q; want %q, %q, %q, %q",
				tc.url, n.url, n.addr, n.tls, n.host, n.path, tc.key, tc.addr, tc.host, tc.path)
		}
	}
	rt := bareRouter(t, "")
	for _, bad := range []string{
		"http://u:p@n1:8080",            // credentials
		"http://u@n1",                   // a user alone
		"http://n1:8080/?q=1",           // query
		"http://n1:8080?",               // empty query
		"http://n1:8080#frag",           // fragment
		"http://n1\r\nX-Evil: 1",        // CR LF in the host
		"http://n1:8080/a\r\nX-Evil: 1", // CR LF in the path
		"http://n1:8080/a\x00",          // NUL in the path
		"http://n 1:8080",               // a space in the host
		"http://caf\u00e9:8080",         // a non-ASCII host
		"http://n1:port",                // no port
		"http:///hotc",                  // no host
		"ftp://n1",                      // scheme
	} {
		if u, err := rt.Join(bad); err == nil {
			t.Errorf("Join(%q) = %q, want an error", bad, u)
		}
	}
	if got := len(rt.Nodes()); got != 0 {
		t.Errorf("%d members after refused joins, want 0", got)
	}
}

// A spill carries what is left of the client's deadline, not the whole
// budget again: the first choice accepts, stalls 150 ms and closes
// without a reply, and the second sees at most 850 ms of a 1000 ms
// deadline.
func TestSpillCarriesTheRemainingDeadline(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
					time.Sleep(150 * time.Millisecond)
				}
			}()
		}
	}()
	seen := make(chan string, 1)
	srv, _ := countingNode(t, func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get(live.DeadlineHeader)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "ok")
	})
	rt, err := New(Config{Nodes: []string{lis.Addr().String(), srv.URL}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	// A function whose first choice is the stalling node.
	fn := ""
	for i := 0; fn == ""; i++ {
		if name := "fn" + strconv.Itoa(i); rt.placement(name)[0].n.addr == lis.Addr().String() {
			fn = name
		}
	}
	rec := route(rt, http.MethodPost, fn, "x", http.Header{live.DeadlineHeader: {"1000"}})
	if rec.Code != http.StatusOK || rec.Header().Get(AttemptsHeader) != "2" {
		t.Fatalf("reply = %d after %s attempts, want 200 after 2", rec.Code, rec.Header().Get(AttemptsHeader))
	}
	got, err := strconv.ParseInt(<-seen, 10, 64)
	if err != nil || got < 1 || got > 850 {
		t.Fatalf("the second node saw %s %d (%v), want 1..850 of the 1000 ms budget", live.DeadlineHeader, got, err)
	}
}
