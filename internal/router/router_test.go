package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hotc/internal/faas/live"
)

// --- placement table tests (no network) ---

// bareRouter builds a router over fake node URLs without starting it;
// tests poke node state directly.
func bareRouter(t *testing.T, policy Policy, urls ...string) *Router {
	t.Helper()
	rt, err := New(Config{Nodes: urls, Policy: policy, PollInterval: time.Hour, TraceSeed: 1})
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
			rt := bareRouter(t, PolicyWarmAware, urls...)
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
	rt := bareRouter(t, PolicyRoundRobin, "n1:1", "n2:1", "n3:1")
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
	rt := bareRouter(t, PolicyWarmAware, "n1:1", "n2:1")
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

func startNode(t *testing.T, cfg live.PoolConfig) (*live.Daemon, string) {
	t.Helper()
	d := live.NewDaemon(cfg)
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
	cfg.TraceSeed = 1
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
			rt.Drain(s2, true)
			rt.PollOnce()
			time.Sleep(5 * time.Millisecond)
			rt.Drain(s2, false)
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
