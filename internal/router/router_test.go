package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/faas/live"
	"hotc/internal/kernel"
	"hotc/internal/obs"
)

// --- placement table tests (no network) ---

// bareRouter builds a router over fake node URLs without starting it;
// tests poke node state directly.
func bareRouter(t *testing.T, policy kernel.Policy, urls ...string) *Router {
	t.Helper()
	rt, err := New(Config{Nodes: urls, Policy: policy, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func (rt *Router) setNode(t *testing.T, url string, healthy, draining bool, warm map[string]int) {
	t.Helper()
	u, _ := normalizeURL(url)
	n, ok := rt.nodes[u]
	if !ok {
		t.Fatalf("node %s not a member", url)
	}
	n.mu.Lock()
	n.healthy, n.draining = healthy, draining
	n.warm = warm
	if n.warm == nil {
		n.warm = map[string]int{}
	}
	n.mu.Unlock()
}

func placementNames(cands []candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.n.name + "/" + c.kind
	}
	return out
}

func TestPlacementTable(t *testing.T) {
	const fn = "render"
	urls := []string{"n1:1", "n2:1", "n3:1"}
	ringOrder := func(rt *Router) []string {
		var names []string
		for _, u := range rt.ring.Ordered(fn) {
			names = append(names, nodeName(u)+"/hash")
		}
		return names
	}
	cases := []struct {
		name  string
		setup func(rt *Router)
		want  func(rt *Router) []string
	}{
		{
			name:  "no warmth falls back to ring order",
			setup: func(rt *Router) {},
			want:  ringOrder,
		},
		{
			name: "warm node wins over ring owner",
			setup: func(rt *Router) {
				rt.setNode(t, "n2:1", true, false, map[string]int{fn: 1})
			},
			want: func(rt *Router) []string {
				want := []string{"n2:1/warm"}
				for _, h := range ringOrder(rt) {
					if h != "n2:1/hash" {
						want = append(want, h)
					}
				}
				return want
			},
		},
		{
			name: "warmest node first, ties broken by url",
			setup: func(rt *Router) {
				rt.setNode(t, "n1:1", true, false, map[string]int{fn: 1})
				rt.setNode(t, "n3:1", true, false, map[string]int{fn: 4})
			},
			want: func(rt *Router) []string {
				want := []string{"n3:1/warm", "n1:1/warm"}
				for _, h := range ringOrder(rt) {
					if h == "n2:1/hash" {
						want = append(want, h)
					}
				}
				return want
			},
		},
		{
			name: "draining node never placed even when warm",
			setup: func(rt *Router) {
				rt.setNode(t, "n2:1", true, true, map[string]int{fn: 5})
			},
			want: func(rt *Router) []string {
				var want []string
				for _, h := range ringOrder(rt) {
					if h != "n2:1/hash" {
						want = append(want, h)
					}
				}
				return want
			},
		},
		{
			name: "unhealthy node never placed",
			setup: func(rt *Router) {
				rt.setNode(t, "n1:1", false, false, map[string]int{fn: 5})
			},
			want: func(rt *Router) []string {
				var want []string
				for _, h := range ringOrder(rt) {
					if h != "n1:1/hash" {
						want = append(want, h)
					}
				}
				return want
			},
		},
		{
			name: "all down yields no candidates",
			setup: func(rt *Router) {
				for _, u := range urls {
					rt.setNode(t, u, false, false, nil)
				}
			},
			want: func(rt *Router) []string { return nil },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := bareRouter(t, kernel.PolicyWarmAware, urls...)
			tc.setup(rt)
			got := placementNames(rt.placement(fn))
			want := tc.want(rt)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("placement = %v, want %v", got, want)
			}
		})
	}
}

func TestPlacementCapsAtMaxAttempts(t *testing.T) {
	rt, err := New(Config{
		Nodes: []string{"n1:1", "n2:1", "n3:1"}, MaxAttempts: 2, PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.placement("fn")); got != 2 {
		t.Fatalf("placement length = %d, want MaxAttempts cap of 2", got)
	}
}

func TestPlacementRoundRobinRotates(t *testing.T) {
	rt := bareRouter(t, kernel.PolicyRoundRobin, "n1:1", "n2:1", "n3:1")
	first := map[string]int{}
	for i := 0; i < 9; i++ {
		cands := rt.placement("fn")
		if len(cands) != 3 {
			t.Fatalf("rr placement length = %d", len(cands))
		}
		if cands[0].kind != "rr" {
			t.Fatalf("rr kind = %q", cands[0].kind)
		}
		first[cands[0].n.name]++
	}
	for _, u := range []string{"n1:1", "n2:1", "n3:1"} {
		if first[u] != 3 {
			t.Fatalf("round-robin uneven: %v", first)
		}
	}
}

// Ring rebalance on membership change: joining adds a node to
// placements, leaving removes it, and surviving keys keep their
// owners (the consistent-hashing property, via Ring).
func TestPlacementRebalancesOnJoinLeave(t *testing.T) {
	rt := bareRouter(t, kernel.PolicyWarmAware, "n1:1", "n2:1")
	owners := map[string]string{}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("fn-%d", i)
		owners[key] = rt.placement(key)[0].n.name
	}
	if _, err := rt.Join("n3:1"); err != nil {
		t.Fatal(err)
	}
	movedTo3 := 0
	for key, prev := range owners {
		now := rt.placement(key)[0].n.name
		if now != prev {
			if now != "n3:1" {
				t.Fatalf("key %s moved %s -> %s on join; only the new node may gain keys", key, prev, now)
			}
			movedTo3++
		}
	}
	if movedTo3 == 0 {
		t.Fatal("new node took no keys")
	}
	if !rt.Leave("n3:1") {
		t.Fatal("Leave returned false")
	}
	for key, prev := range owners {
		if now := rt.placement(key)[0].n.name; now != prev {
			t.Fatalf("key %s did not return to %s after leave (got %s)", key, prev, now)
		}
	}
}

// --- integration tests against real daemons ---

func startNode(t *testing.T, cfg live.PoolConfig) (*live.Gateway, string) {
	t.Helper()
	d := live.New(cfg)
	base, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d, base
}

func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour // tests drive PollOnce explicitly
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := rt.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, base
}

func deployVia(t *testing.T, base, name, handler string, coldMs int) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"handler":%q,"coldStartMs":%d}`, name, handler, coldMs)
	resp, err := http.Post(base+"/system/functions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("deploy %s: %d %s", name, resp.StatusCode, b)
	}
}

func invoke(t *testing.T, base, name, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/function/"+name, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestRoutedRequestRoundTripsWithWarmAffinity(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1, n2}})

	deployVia(t, base, "fn", "sleep", 0)

	// Cold first request lands somewhere and leaves a warm runtime.
	first := invoke(t, base, "fn", "1")
	b, _ := io.ReadAll(first.Body)
	if first.StatusCode != http.StatusOK || string(b) != "slept 1ms" {
		t.Fatalf("first routed request = %d %q", first.StatusCode, b)
	}
	servedBy := first.Header.Get(NodeHeader)
	if servedBy == "" {
		t.Fatalf("%s header missing", NodeHeader)
	}
	if first.Header.Get(live.TraceIDHeader) == "" {
		t.Fatal("routed response carries no trace ID")
	}

	// After a poll, warmth pins the next request to the same node and
	// it reuses the runtime.
	rt.PollOnce()
	second := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, second.Body)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second request = %d", second.StatusCode)
	}
	if got := second.Header.Get(NodeHeader); got != servedBy {
		t.Fatalf("warm affinity broken: first on %s, second on %s", servedBy, got)
	}
	if second.Header.Get("X-Hotc-Reused") != "true" {
		t.Fatal("second request did not reuse the warm runtime")
	}
}

// A name holding a '/' has no /function/<name> path through the router,
// so a node refuses to deploy it, directly and through the router's
// fan-out: no node serves it and nothing is recorded for replay.
func TestUnroutableNameRefusedAtDeploy(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1}})
	const spec = `{"name":"a/b","handler":"echo"}`
	for _, tc := range []struct {
		at   string
		want int
	}{{n1, http.StatusBadRequest}, {base, http.StatusBadGateway}} {
		resp, err := http.Post(tc.at+"/system/functions", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("deploy of a/b at %s: %d %s, want %d", tc.at, resp.StatusCode, b, tc.want)
		}
	}
	list, err := http.Get(n1 + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	if b, _ := io.ReadAll(list.Body); strings.Contains(string(b), "a/b") {
		t.Errorf("the node lists %s after the refused deploys", b)
	}
}

// A spec every node refuses — here for a field no node knows — is
// answered 502 by the router's fan-out, naming the node's reason, and
// recorded for no replay.
func TestUnknownDeployFieldRefusedByEveryNode(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1, n2}})
	resp, err := http.Post(base+"/system/functions", "application/json", strings.NewReader(`{"name":"f","handler":"echo","pullMs":5}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(b), "pullMs") {
		t.Fatalf("deploy with pullMs through the router: %d %s, want 502 naming the field", resp.StatusCode, b)
	}
	rt.mu.Lock()
	replayed := len(rt.deploys)
	rt.mu.Unlock()
	if replayed != 0 {
		t.Fatalf("%d deploys recorded for replay, want none", replayed)
	}
}

func TestSpillOnSaturationSignal(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1, n2}})
	deployVia(t, base, "fn", "sleep", 0)

	// Warm a runtime on the first-choice node, then drain that node
	// behind the router's back: the router still places there, gets
	// the 503 + drain marker, and must spill to the other node.
	first := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, first.Body)
	servedBy := first.Header.Get(NodeHeader)
	rt.PollOnce()
	var drained, other string
	for _, st := range rt.Nodes() {
		if st.Name == servedBy {
			drained = st.URL
		} else {
			other = st.URL
		}
	}
	req, _ := http.NewRequest(http.MethodPost, drained+"/system/drain", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("direct drain: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	spilled := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, spilled.Body)
	if spilled.StatusCode != http.StatusOK {
		t.Fatalf("spilled request = %d", spilled.StatusCode)
	}
	if got := spilled.Header.Get(NodeHeader); got != nodeName(other) {
		t.Fatalf("request served by %s, want spill to %s", got, nodeName(other))
	}
	if got := spilled.Header.Get(AttemptsHeader); got != "2" {
		t.Fatalf("attempts = %s, want 2", got)
	}
	if rt.mSpills.Value() < 1 || rt.mDrains.Value() < 1 {
		t.Fatalf("spill/drain counters = %v/%v, want both >= 1", rt.mSpills.Value(), rt.mDrains.Value())
	}
}

// A node that sheds a request for its deadline has answered it: the
// router relays the 429 instead of replaying the request on another
// node, where it would start a fresh full deadline.
func TestDeadlineShedIsNotSpilled(t *testing.T) {
	cfg := live.PoolConfig{MaxInFlight: 1, QueueDepth: 4}
	gateways := map[string]*live.Gateway{}
	g1, n1 := startNode(t, cfg)
	g2, n2 := startNode(t, cfg)
	gateways[n1], gateways[n2] = g1, g2
	rt, base := startRouter(t, Config{Nodes: []string{n1, n2}})
	deployVia(t, base, "fn", "sleep", 0)

	first := rt.placement("fn")[0].n.name
	var shedder, other *live.Gateway
	var shedderURL string
	for _, st := range rt.Nodes() {
		if st.Name == first {
			shedder, shedderURL = gateways[st.URL], st.URL
		} else {
			other = gateways[st.URL]
		}
	}
	// Hold the first choice's one slot for 500 ms, straight to the node.
	held := make(chan struct{})
	go func() {
		defer close(held)
		if resp, err := http.Post(shedderURL+"/function/fn", "text/plain", strings.NewReader("500")); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer func() { <-held }()
	for deadline := time.Now().Add(5 * time.Second); shedder.AdmissionStats()["fn"].InFlight != 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the holder never took the first choice's slot")
		}
	}

	req, _ := http.NewRequest(http.MethodPost, base+"/function/fn", strings.NewReader("1"))
	req.Header.Set(live.DeadlineHeader, "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(live.RejectedHeader) != "deadline" {
		t.Fatalf("reply = %d %s %q, want the node's 429 deadline", resp.StatusCode, live.RejectedHeader, resp.Header.Get(live.RejectedHeader))
	}
	if got := resp.Header.Get(AttemptsHeader); got != "1" {
		t.Fatalf("%s = %s, want 1", AttemptsHeader, got)
	}
	if st := other.Stats(); st.Requests != 0 {
		t.Fatalf("the second node served %d requests, want none", st.Requests)
	}
	if got := rt.mSpills.Value(); got != 0 {
		t.Fatalf("hotc_router_spill_attempts_total = %v, want 0", got)
	}
}

// The router's /metrics passes the strict exposition parser and holds
// every family the router registers, each named here, after one routed
// request, one poll and one refused head, which its front door counts
// once under its reason, and no panic.
func TestRouterMetricsExposition(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1}})
	deployVia(t, base, "fn", "sleep", 0)
	io.Copy(io.Discard, invoke(t, base, "fn", "1").Body)
	rt.PollOnce()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(conn, "GET / HTTP/1.1\r\n\r\n") // no Host: refused
	io.ReadAll(conn)                               // counted before the reply is written
	conn.Close()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("ParseExposition rejects the router's /metrics: %v", err)
	}
	want := []string{
		"hotc_router_requests_total", "hotc_router_request_duration_ms", "hotc_router_spill_attempts_total",
		"hotc_router_node_healthy", "hotc_router_node_warm_instances", "hotc_router_poll_failures_total",
		"hotc_router_nodes", "hotc_router_drain_rejections_total", "hotc_router_membership_changes_total",
		"hotc_wire_refusals_total", "hotc_wire_panics_total", "hotc_wire_body_bytes_total", "hotc_wire_redials_total",
	}
	var registered []string
	for _, f := range rt.reg.Snapshot() {
		registered = append(registered, f.Name)
		if f.Name == "hotc_wire_refusals_total" && (len(f.Series) != 1 || !slices.Equal(f.Series[0].LabelValues, []string{"router", "host"}) || f.Series[0].Value != 1) {
			t.Errorf("refusals booked %+v, want one under router/host", f.Series)
		}
		if f.Name == "hotc_wire_panics_total" && (len(f.Series) != 1 || !slices.Equal(f.Series[0].LabelValues, []string{"router"}) || f.Series[0].Value != 0) {
			t.Errorf("panics booked %+v, want none under router", f.Series)
		}
	}
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if slices.Sort(registered); !slices.Equal(registered, sorted) {
		t.Fatalf("the router registers %v, this test names %v", registered, want)
	}
	for _, name := range want {
		if !slices.Contains(st.Names, name) {
			t.Errorf("/metrics has no %s family (it has %v)", name, st.Names)
		}
	}
}

// A client that gives up is not a node failure: its abandoned request
// books no probe miss, spills nowhere and is counted canceled, so three
// of them (ProbeFailures) leave both nodes in rotation.
func TestClientDisconnectIsNotANodeFailure(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1, n2}})
	deployVia(t, base, "fn", "sleep", 0)

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/function/fn", strings.NewReader("500"))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("request %d answered %d before the client gave up", i, resp.StatusCode)
		}
		cancel()
	}
	// The router notices each hang-up on its own time: wait until it has
	// concluded all three, whatever it booked them as.
	concluded := func() float64 {
		n := 0.0
		for _, o := range []string{"warm", "hash", "spill", "rr", "no_node", "error", "canceled"} {
			n += rt.mRequests.With(o).Value()
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); concluded() < 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("router concluded %v of 3 abandoned requests", concluded())
		}
	}

	for _, st := range rt.Nodes() {
		if !st.Healthy || st.Misses != 0 {
			t.Errorf("node %s: healthy=%v probeMisses=%d, want healthy with 0 misses", st.Name, st.Healthy, st.Misses)
		}
	}
	if got := rt.mSpills.Value(); got != 0 {
		t.Errorf("hotc_router_spill_attempts_total = %v, want 0", got)
	}
	if got := rt.mRequests.With("canceled").Value(); got != 3 {
		t.Errorf(`hotc_router_requests_total{outcome="canceled"} = %v, want 3`, got)
	}
	next := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, next.Body)
	if next.StatusCode != http.StatusOK {
		t.Fatalf("next request = %d, want 200", next.StatusCode)
	}
}

func TestDrainViaRouterCompletesInFlight(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1}})
	deployVia(t, base, "fn", "sleep", 0)

	type outcome struct {
		status int
		body   string
	}
	inFlight := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/function/fn", "text/plain", strings.NewReader("400"))
		if err != nil {
			inFlight <- outcome{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inFlight <- outcome{resp.StatusCode, string(b)}
	}()
	time.Sleep(80 * time.Millisecond)

	dr, err := http.NewRequest(http.MethodPost, base+"/system/drain?url="+n1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(dr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain via router: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// The in-flight request survives the drain...
	got := <-inFlight
	if got.status != http.StatusOK || got.body != "slept 400ms" {
		t.Fatalf("in-flight during drain = %d %q, want completion", got.status, got.body)
	}
	// ...while new placements find no usable node.
	refused := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, refused.Body)
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during full drain = %d, want 503", refused.StatusCode)
	}
	if refused.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Undrain restores service.
	un, _ := http.NewRequest(http.MethodDelete, base+"/system/drain?url="+n1, nil)
	if resp, err := http.DefaultClient.Do(un); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain via router: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	restored := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, restored.Body)
	if restored.StatusCode != http.StatusOK {
		t.Fatalf("post-undrain request = %d", restored.StatusCode)
	}
}

func TestJoinReplaysDeploysAndLeaveReroutes(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1}})
	deployVia(t, base, "fn", "sleep", 0)

	// Join via the management API: the routed deployment replays to
	// the newcomer.
	joinBody, _ := json.Marshal(struct {
		URL string `json:"url"`
	}{n2})
	resp, err := http.Post(base+"/system/nodes", "application/json", bytes.NewReader(joinBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d", resp.StatusCode)
	}
	list, err := http.Get(n2 + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	var fns []string
	json.NewDecoder(list.Body).Decode(&fns)
	list.Body.Close()
	if len(fns) != 1 || fns[0] != "fn" {
		t.Fatalf("joiner functions = %v, want [fn]", fns)
	}

	// Leave the original node: requests must reroute to the joiner.
	del, _ := http.NewRequest(http.MethodDelete, base+"/system/nodes?url="+n1, nil)
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("leave = %d", dresp.StatusCode)
	}
	after := invoke(t, base, "fn", "1")
	io.Copy(io.Discard, after.Body)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("post-leave request = %d", after.StatusCode)
	}
	if got := after.Header.Get(NodeHeader); got != nodeName(n2) {
		t.Fatalf("post-leave request served by %s, want %s", got, nodeName(n2))
	}
}

// A redeploy replaces the function's replay entry instead of growing
// the log: three deploys over two names leave two entries in
// first-deploy order, the last body winning.
func TestRedeployKeepsOneReplayEntryPerFunction(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	rt, base := startRouter(t, Config{Nodes: []string{n1}})
	deployVia(t, base, "a", "sleep", 1)
	deployVia(t, base, "b", "sleep", 2)
	deployVia(t, base, "a", "echo", 3)

	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if len(rt.deploys) != 2 || rt.deploys[0].name != "a" || rt.deploys[1].name != "b" {
		t.Fatalf("replay log = %d entries %+v, want [a b]", len(rt.deploys), rt.deploys)
	}
	if got := string(rt.deploys[0].body); !strings.Contains(got, `"coldStartMs":3`) {
		t.Fatalf("replay body for a = %s, want the last deploy (coldStartMs 3)", got)
	}
}

// One trace must cross router -> node -> watchdog: the caller's trace
// ID survives to the response header and to the serving node's span
// ring (cold-start spans are always kept by the tail sampler).
func TestTracePropagatesAcrossTiers(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1}})
	deployVia(t, base, "fn", "sleep", 0)

	const traceID = "0123456789abcdef0123456789abcdef"
	req, _ := http.NewRequest(http.MethodPost, base+"/function/fn", strings.NewReader("1"))
	req.Header.Set(live.TraceparentHeader, "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced request = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(live.TraceIDHeader); got != traceID {
		t.Fatalf("response trace ID = %q, want %q", got, traceID)
	}

	spans, err := http.Get(n1 + "/system/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []struct {
			TraceID string `json:"traceId"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(spans.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	spans.Body.Close()
	for _, s := range tr.Spans {
		if s.TraceID == traceID {
			return
		}
	}
	t.Fatalf("node's span ring has no span for trace %s (%d spans)", traceID, len(tr.Spans))
}

// Acceptance: killing a node mid-load loses no accepted requests —
// every request either lands on the dead node's successor via spill
// or routes around it once the probe misses accumulate.
func TestNodeKillMidLoadLosesNoRequests(t *testing.T) {
	victim, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1, n2}, ProbeFailures: 2})
	deployVia(t, base, "fn", "sleep", 0)

	const workers, perWorker = 4, 15
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	var once sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					once.Do(victim.Stop) // kill mid-load, exactly once
				}
				resp, err := http.Post(base+"/function/fn", "text/plain", strings.NewReader("5"))
				if err != nil {
					errs <- err.Error()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d from %s", resp.StatusCode, resp.Header.Get(NodeHeader))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	var failed []string
	for e := range errs {
		failed = append(failed, e)
	}
	if len(failed) > 0 {
		t.Fatalf("%d/%d requests lost across the node kill: %v",
			len(failed), workers*perWorker, failed[:min(3, len(failed))])
	}
}

// Router-vs-node-churn under the race detector: invocations race
// joins, leaves, drains and polls. Every request must still succeed —
// churned state only ever removes a node the spill chain can route
// around.
func TestChurnUnderLoad(t *testing.T) {
	stable, s1 := startNode(t, live.PoolConfig{})
	_ = stable
	_, s2 := startNode(t, live.PoolConfig{})
	churnD, churnURL := startNode(t, live.PoolConfig{})
	_ = churnD
	rt, base := startRouter(t, Config{Nodes: []string{s1, s2}, MaxAttempts: 3})
	deployVia(t, base, "fn", "sleep", 0)
	// The churning node serves fn from the start so a request that
	// lands there mid-join always round-trips.
	deployVia(t, churnURL, "fn", "sleep", 0)

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(2)
	go func() { // membership churn
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Join(churnURL)
			time.Sleep(5 * time.Millisecond)
			rt.Leave(churnURL)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() { // drain churn + polls
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Drain(context.Background(), s2, true)
			rt.PollOnce()
			time.Sleep(5 * time.Millisecond)
			rt.Drain(context.Background(), s2, false)
			rt.PollOnce()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	const workers, perWorker = 4, 20
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(base+"/function/fn", "text/plain", strings.NewReader("2"))
				if err != nil {
					errs <- err.Error()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()
	close(errs)
	var failed []string
	for e := range errs {
		failed = append(failed, e)
	}
	if len(failed) > 0 {
		t.Fatalf("%d/%d requests failed under churn: %v", len(failed), workers*perWorker, failed[:min(3, len(failed))])
	}
}

// Deploy fan-out reaches every member, so any placement can serve the
// key.
func TestDeployFansOutToAllNodes(t *testing.T) {
	_, n1 := startNode(t, live.PoolConfig{})
	_, n2 := startNode(t, live.PoolConfig{})
	_, base := startRouter(t, Config{Nodes: []string{n1, n2}})
	deployVia(t, base, "fn", "echo", 0)
	for _, n := range []string{n1, n2} {
		resp, err := http.Get(n + "/system/functions")
		if err != nil {
			t.Fatal(err)
		}
		var fns []string
		json.NewDecoder(resp.Body).Decode(&fns)
		resp.Body.Close()
		if len(fns) != 1 || fns[0] != "fn" {
			t.Fatalf("node %s functions = %v, want [fn]", n, fns)
		}
	}
}

// A deployment spec over 1 MiB is refused whole, before any node sees
// it: read through a 1 MiB limit it used to reach every node cut short,
// each node refused the broken JSON and the router answered 502.
func TestOversizeDeployRefusedBeforeAnyNode(t *testing.T) {
	var deploys atomic.Int64
	rt, err := New(Config{Nodes: []string{"n1:1", "n2:1"}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rt.dial = fakeNodes(func(line string) {
		if strings.Contains(line, " /system/functions ") {
			deploys.Add(1)
		}
	})
	defer rt.Stop()
	spec := `{"name":"big","handler":"echo","pad":"` + strings.Repeat("x", 1<<20) + `"}`
	spec = spec[:1<<20+1]
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/system/functions", strings.NewReader(spec)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", rec.Code)
	}
	if n := deploys.Load(); n != 0 {
		t.Errorf("%d nodes saw the deploy, want none", n)
	}
}

// Regression: probes had no timeout, so one node that accepted the
// connection and never answered /system/stats blocked PollOnce, and
// with it every node's health and warm state (and StartOn), for good.
// A probe now lasts at most PollInterval, and Stop abandons it.
func TestProbeOfHungNodeIsBounded(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	// Sized far past the few probes this test makes, so the accept loop
	// never blocks on it.
	accepted := make(chan struct{}, 64)
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			accepted <- struct{}{}
		}
	}()
	t.Cleanup(func() {
		hung.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"warmInstances":{"fn":2}}`)
	}))
	t.Cleanup(healthy.Close)
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked after 2s", what)
		}
	}

	rt, err := New(Config{Nodes: []string{hung.Addr().String(), healthy.URL}, PollInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	within("PollOnce with a 50ms PollInterval", rt.PollOnce)
	for _, st := range rt.Nodes() {
		if st.URL == healthy.URL && (st.Warm["fn"] != 2 || st.Misses != 0) {
			t.Errorf("healthy node: warm %v, %d misses; want fn:2 and none", st.Warm, st.Misses)
		}
		if st.URL != healthy.URL && st.Misses != 1 {
			t.Errorf("hung node: %d misses, want 1", st.Misses)
		}
	}

	// A probe that PollInterval would let run for an hour ends with Stop.
	slow, err := New(Config{Nodes: []string{hung.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for len(accepted) > 0 {
		<-accepted
	}
	polled := make(chan struct{})
	go func() {
		slow.PollOnce()
		close(polled)
	}()
	select {
	case <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("the probe never reached the hung node")
	}
	within("Stop", slow.Stop)
	select {
	case <-polled:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop left a probe blocked")
	}
}

// The drain and the deploy fan-out talk to a node that accepts the
// connection and never answers: each returns within 2 s of its
// request's context ending, and Stop ends one in flight. Drain once
// built its request with no context on a client with no timeout, and
// stayed blocked for good.
func TestHungControlExchangesAreBounded(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hung.Close() })
	accepted, closed := make(chan struct{}, 8), make(chan struct{}, 8)
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func() {
				// Reads what the router sends, answers nothing, and
				// reports the router's close.
				io.Copy(io.Discard, c)
				c.Close()
				closed <- struct{}{}
			}()
		}
	}()
	within := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: still blocked 2s on", what)
		}
	}
	rt, err := New(Config{Nodes: []string{hung.Addr().String()}, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	member := url.QueryEscape("http://" + hung.Addr().String())
	for _, c := range []struct{ what, target, body string }{
		{"drain", "/system/drain?url=" + member, ""},
		{"deploy fan-out", "/system/functions", `{"name":"fn","handler":"echo"}`},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, c.target, strings.NewReader(c.body)).WithContext(ctx)
		done := make(chan struct{})
		go func() {
			rt.Routes().ServeHTTP(httptest.NewRecorder(), req)
			close(done)
		}()
		within(c.what+" reaching the node", accepted)
		cancel()
		within(c.what+" after its request ended", done)
		within(c.what+"'s connection after its request ended", closed)
	}

	// Stop ends a drain in flight whose request never ends.
	done := make(chan struct{})
	go func() {
		rt.Routes().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/system/drain?url="+member, nil))
		close(done)
	}()
	within("drain reaching the node", accepted)
	stopped := make(chan struct{})
	go func() {
		rt.Stop()
		close(stopped)
	}()
	within("Stop with a drain in flight", stopped)
	within("the drain after Stop", done)
	within("the drain's connection after Stop", closed)
}

// fakeNodes is a dial whose every member is a canned node over an
// in-memory pipe: a router's upstream, with no sockets. Each write the
// router makes — a request head with its small body — is one request:
// seen (when not nil) gets its request line, and the node answers 200
// with an empty stats body. A TLS hello gets the same answer, which no
// handshake accepts.
func fakeNodes(seen func(line string)) func(context.Context, string, string) (net.Conn, error) {
	return func(context.Context, string, string) (net.Conn, error) {
		conn, node := net.Pipe()
		go func() {
			defer node.Close()
			buf := make([]byte, 64<<10)
			for {
				n, err := node.Read(buf)
				if err != nil {
					return
				}
				if seen != nil {
					line, _, _ := strings.Cut(string(buf[:n]), "\r\n")
					seen(line)
				}
				if _, err := io.WriteString(node, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"); err != nil {
					return
				}
			}
		}()
		return conn, nil
	}
}

// FuzzRouterMembership drives the membership API on a bare router: a
// POST /system/nodes body, then POST and DELETE /system/drain and
// DELETE /system/nodes with fuzzed ?url= values. Nothing may panic, a
// refused call (4xx) never changes membership, and the members are
// always the accepted joins minus the accepted leaves.
func FuzzRouterMembership(f *testing.F) {
	f.Add([]byte(`{"url":"n2:1"}`), "n1:1", "n2:1")
	f.Add([]byte(`{"url":"https://n2:1/"}`), "http://n1:1/", "https://n2:1")
	f.Add([]byte(`{"url":"n1:1"}`), " n1:1 ", "n1:1")
	f.Add([]byte(`{"url":""}`), "", "")
	f.Add([]byte(`{"url":"ftp://n2:1"}`), "ftp://n1:1", "ghost:1")
	f.Add([]byte(`not json`), "n2:1", "http://n1:1")
	f.Add([]byte(`{"url":"http://a b/%zz"}`), "http://a b/%zz", "http://a b/%zz")
	f.Fuzz(func(t *testing.T, join []byte, leave, drain string) {
		rt, err := New(Config{Nodes: []string{"n1:1"}, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		rt.dial = fakeNodes(nil)
		defer rt.Stop()
		mux := rt.Routes()
		members := map[string]bool{"http://n1:1": true}
		call := func(method, target string, body []byte) (int, []byte) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}
		check := func(step string, code int) {
			t.Helper()
			var got, want []string
			for _, st := range rt.Nodes() {
				got = append(got, st.URL)
			}
			for u := range members {
				want = append(want, u)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("after %s (status %d): members %q, want %q", step, code, got, want)
			}
		}

		code, body := call(http.MethodPost, "/system/nodes", join)
		if code == http.StatusOK {
			var joined struct {
				URL string `json:"url"`
			}
			if err := json.Unmarshal(body, &joined); err != nil {
				t.Fatalf("join answered 200 with %q: %v", body, err)
			}
			members[joined.URL] = true
		}
		check("join", code)
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			code, _ = call(method, "/system/drain?url="+url.QueryEscape(drain), nil)
			check(method+" drain", code)
		}
		code, _ = call(http.MethodDelete, "/system/nodes?url="+url.QueryEscape(leave), nil)
		if code == http.StatusOK {
			u, _ := normalizeURL(leave)
			delete(members, u)
		}
		check("leave", code)
	})
}

// A handler panic at the router's front door counts once, under
// hotc_wire_panics_total{role="router"}, whichever backend its node
// runs, and moves neither of the node's series (gateway, watchdog).
func TestRouterPanicCountsOnce(t *testing.T) {
	for _, backend := range []string{live.BackendSocket, live.BackendInProcess} {
		t.Run(backend, func(t *testing.T) {
			node, n1 := startNode(t, live.PoolConfig{Backend: backend})
			rt, err := New(Config{Nodes: []string{n1}, PollInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			dial := rt.dial
			rt.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dial(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return panicConn{conn, &armed}, nil
			}
			base, err := rt.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			armed.Store(true)
			if resp, err := http.Post(base+"/function/f", "text/plain", strings.NewReader("x")); err == nil {
				resp.Body.Close()
				t.Fatalf("a panicking router answered %d", resp.StatusCode)
			}
			for _, c := range []struct {
				reg  *obs.Registry
				role string
				want float64
			}{{rt.reg, "router", 1}, {node.Registry(), "gateway", 0}, {node.Registry(), "watchdog", 0}} {
				if got := wireBook(c.reg, "hotc_wire_panics_total", c.role); got != c.want {
					t.Errorf("hotc_wire_panics_total{role=%q} = %v, want %v", c.role, got, c.want)
				}
			}
		})
	}
}

// panicConn is a node link whose next write, once armed, panics: the
// router's handler panics as it forwards.
type panicConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c panicConn) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		panic("router bug")
	}
	return c.Conn.Write(p)
}

// wireBook sums reg's series of family whose label values begin with
// labels (0 when none).
func wireBook(reg *obs.Registry, family string, labels ...string) float64 {
	sum := 0.0
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			if f.Name == family && slices.Equal(s.LabelValues[:min(len(labels), len(s.LabelValues))], labels) {
				sum += s.Value
			}
		}
	}
	return sum
}
