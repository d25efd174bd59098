package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/kernel"
	"hotc/internal/router"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	opts.PrePull = true
	c := New(opts)
	t.Cleanup(c.Close)
	if err := c.Deploy("qr", config.Runtime{Image: "python:3.8"}, workload.QRApp(workload.Python)); err != nil {
		t.Fatal(err)
	}
	return c
}

func serialSchedule(n int, gap time.Duration) []trace.Request {
	return trace.Serial{Interval: gap, Count: n}.Generate()
}

func TestRoundRobinSpreads(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3, Routing: kernel.PolicyRoundRobin})
	results, err := c.Run(serialSchedule(9, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.Served() != 3 {
			t.Fatalf("%s served %d, want 3", n.Name, n.Served())
		}
	}
	// Round-robin destroys reuse for serial traffic: each revisit may
	// land on a different node, but with 9 requests and 3 nodes each
	// node sees 3 — after its first, it reuses.
	if ReuseRate(results) < 0.5 {
		t.Fatalf("reuse rate = %v", ReuseRate(results))
	}
}

func TestReuseAffinityBeatsRoundRobinOnReuse(t *testing.T) {
	// Single-threaded serial traffic: warm placement should send every
	// request after the first to the same warm node.
	aff := newCluster(t, Options{Nodes: 4, Routing: kernel.PolicyWarmAware})
	affRes, err := aff.Run(serialSchedule(12, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	rr := newCluster(t, Options{Nodes: 4, Routing: kernel.PolicyRoundRobin})
	rrRes, err := rr.Run(serialSchedule(12, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if ReuseRate(affRes) <= ReuseRate(rrRes) {
		t.Fatalf("affinity reuse %v should beat round-robin %v",
			ReuseRate(affRes), ReuseRate(rrRes))
	}
	if ReuseRate(affRes) < 11.0/12 {
		t.Fatalf("affinity reuse = %v, want all but the first", ReuseRate(affRes))
	}
}

// Warm placement does not spread a function's load: parallel rounds all
// land on the function's ring owner, which the first round warms, and
// the other nodes serve nothing. hotc-router spreads a function only
// when its node answers 429/503, which a simulated node never does.
func TestWarmPlacementKeepsLoadOnTheWarmNode(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3})
	sched := trace.Parallel{Threads: 12, Interval: 30 * time.Second, Rounds: 6}.Generate()
	if _, err := c.Run(sched, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	owner := c.ring.Owner("qr")
	for _, n := range c.Nodes() {
		want := 0
		if n.Name == owner {
			want = len(sched)
		}
		if n.Served() != want {
			t.Fatalf("%s served %d, want %d (owner %s); nodes=%v", n.Name, n.Served(), want, owner, servedCounts(c))
		}
	}
}

func servedCounts(c *Cluster) []int {
	var out []int
	for _, n := range c.Nodes() {
		out = append(out, n.Served())
	}
	return out
}

func TestNodeFailureRoutesAround(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3})
	if !c.FailNode(0) {
		t.Fatal("FailNode rejected valid index")
	}
	results, err := c.Run(serialSchedule(6, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("request failed: %v", r.Err)
		}
		if r.Node == "node-0" {
			t.Fatal("request routed to failed node")
		}
	}
	if c.Nodes()[0].Served() != 0 {
		t.Fatal("failed node served requests")
	}
	// Recovery brings it back into rotation.
	if !c.RecoverNode(0) {
		t.Fatal("RecoverNode rejected valid index")
	}
	c2 := newCluster(t, Options{Nodes: 1, Routing: kernel.PolicyRoundRobin})
	if c2.FailNode(5) || c2.RecoverNode(-1) {
		t.Fatal("out-of-range node indices accepted")
	}
}

// A node that fails with a request in flight is never placed on again,
// though the request completes there and leaves a warm runtime behind.
func TestFailedNodeWithRequestInFlightIsNotPlaced(t *testing.T) {
	c := newCluster(t, Options{Nodes: 2})
	owner := c.place("qr")
	var res Result
	completed := false
	c.sched.At(0, func() {
		c.Handle("qr", trace.Request{}, func(r Result) {
			res = r
			completed = true
		})
	})
	// 1ns later the cold start is still running: the node fails with
	// the request in flight.
	c.sched.At(1, func() {
		for i, n := range c.nodes {
			if n == owner && !c.FailNode(i) {
				t.Error("FailNode rejected valid index")
			}
		}
	})
	for !completed && c.sched.Step() {
	}
	if !completed {
		t.Fatal("request never completed")
	}
	if res.Node != owner.Name {
		t.Fatalf("request served by %s, want %s", res.Node, owner.Name)
	}
	if owner.spare(c.keys["qr"]) < 1 {
		t.Fatal("the failed node kept no warm runtime: the check below proves nothing")
	}
	if n := c.place("qr"); n == nil || n == owner {
		t.Fatalf("placed on %v, want the surviving node", n)
	}
}

// Regression: served used to count every completion, errors included,
// so LoadImbalance and Served mistook failure churn for useful work.
func TestServedCountsSuccessesOnly(t *testing.T) {
	c := newCluster(t, Options{Nodes: 2, Routing: kernel.PolicyRoundRobin})
	if _, err := c.Run(serialSchedule(4, time.Minute), func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	if imb := c.LoadImbalance(); imb != 0 {
		t.Fatalf("balanced success imbalance = %v, want 0", imb)
	}
	// Requests for an undeployed function fail on whichever node they
	// land on; neither served counts nor imbalance may move.
	results, err := c.Run(serialSchedule(3, time.Minute), func(int) string { return "ghost" })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatal("ghost request succeeded")
		}
	}
	if imb := c.LoadImbalance(); imb != 0 {
		t.Fatalf("failures skewed imbalance to %v, served=%v", imb, servedCounts(c))
	}
	served := 0
	for _, n := range c.Nodes() {
		served += n.Served()
	}
	if served != 4 {
		t.Fatalf("served = %d after 3 failures, want the 4 successes", served)
	}
}

// A recovered node's warm runtimes draw the next request at once.
func TestRecoveryRestoresAffinityWithinOneRequest(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3})
	first, err := c.Run(serialSchedule(4, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	warmNode := first[len(first)-1].Node // warmth pinned the stream here
	idx := -1
	for i, n := range c.Nodes() {
		if n.Name == warmNode {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("unknown serving node %q", warmNode)
	}
	if !c.FailNode(idx) || !c.RecoverNode(idx) {
		t.Fatal("fail/recover rejected valid index")
	}
	// 30s of headroom lets the warm runtime finish post-request cleanup
	// (an At of 0 would arrive while it is still scrubbing).
	after, err := c.Run([]trace.Request{{At: 30 * time.Second}}, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Node != warmNode {
		t.Fatalf("post-recovery request routed to %s, want recovered %s", after[0].Node, warmNode)
	}
	if !after[0].Reused {
		t.Fatal("post-recovery request did not reuse the node's warm runtime")
	}
}

func TestAllNodesFailed(t *testing.T) {
	c := newCluster(t, Options{Nodes: 2})
	c.FailNode(0)
	c.FailNode(1)
	results, err := c.Run(serialSchedule(1, time.Second), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("request succeeded with all nodes down")
	}
}

func TestDeployUnknownImageFails(t *testing.T) {
	c := New(Options{Nodes: 2})
	defer c.Close()
	if err := c.Deploy("x", config.Runtime{Image: "ghost:1"}, workload.QRApp(workload.Go)); err == nil {
		t.Fatal("unknown image deployed")
	}
}

func TestReuseRateEmpty(t *testing.T) {
	if ReuseRate(nil) != 0 {
		t.Fatal("empty reuse rate != 0")
	}
}

func TestMultipleFunctionsIndependentAffinity(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3})
	if err := c.Deploy("qr2", config.Runtime{Image: "node:10"}, workload.QRApp(workload.Node)); err != nil {
		t.Fatal(err)
	}
	var schedule []trace.Request
	for i := 0; i < 12; i++ {
		schedule = append(schedule, trace.Request{At: time.Duration(i) * time.Minute, Class: i % 2, Round: i})
	}
	results, err := c.Run(schedule, func(cl int) string {
		if cl == 0 {
			return "qr"
		}
		return "qr2"
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each function should reuse after its own first request.
	if ReuseRate(results) < 10.0/12 {
		t.Fatalf("reuse rate = %v", ReuseRate(results))
	}
}

// Regression: a node's pool was built without the host's memory signal,
// so §IV.B's "80 % of host memory" eviction never fired on a multi-host
// run and idle runtimes piled up past it.
func TestClusterNodeHonoursMemoryThreshold(t *testing.T) {
	// A host whose idle OS already sits just under the threshold: 8 MB
	// of headroom, i.e. eleven idle runtimes at 0.7 MB each.
	small := costmodel.Server()
	small.TotalMemoryMB = (small.BaseMemMB + 8) / 0.80
	// The controller's first tick is after the run, so the threshold is
	// the only thing bounding what the requests leave behind.
	c := New(Options{Nodes: 1, Profile: small, PrePull: true, Core: core.Options{Interval: time.Hour}})
	t.Cleanup(c.Close)
	const fns = 30
	names := make([]string, fns)
	for i := range names {
		names[i] = fmt.Sprintf("fn-%d", i)
		rt := config.Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("F=%d", i)}}
		if err := c.Deploy(names[i], rt, workload.QRApp(workload.Python)); err != nil {
			t.Fatal(err)
		}
	}
	// One request per function, each leaving an idle runtime behind.
	var schedule []trace.Request
	for i := 0; i < fns; i++ {
		schedule = append(schedule, trace.Request{At: time.Duration(i) * 10 * time.Second, Class: i, Round: i})
	}
	results, err := c.Run(schedule, func(cl int) string { return names[cl] })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	n := c.Nodes()[0]
	if ev := n.Pool.Stats().Evictions; ev == 0 {
		t.Fatalf("no evictions with %d idle runtimes on a host with room for 11", n.Engine.Live())
	}
	// The pool makes room before it grows, so usage may sit at most the
	// one newest runtime past the threshold.
	oneRuntimePct := 100 * 0.7 / small.TotalMemoryMB
	if pct := n.Host.UsedMemPct(); pct >= 80+oneRuntimePct {
		t.Fatalf("host memory at %.2f%% with %d live runtimes, threshold is 80%%", pct, n.Engine.Live())
	}
}

// Regression: a node's warmth was its live runtimes of the key against
// its in-flight requests of every key, so one request of another
// function in flight hid a spare warm runtime and sent the next request
// to a cold node.
func TestWarmthCountsOnlyTheKeysOwnRequests(t *testing.T) {
	c := newCluster(t, Options{Nodes: 2})
	qr := func(int) string { return "qr" }
	// Warm qr on the node that does not own it: the owner is down for
	// qr's first request.
	owner := 0
	if c.nodes[1].Name == c.ring.Owner("qr") {
		owner = 1
	}
	warm := c.nodes[1-owner].Name
	c.FailNode(owner)
	if _, err := c.Run([]trace.Request{{}}, qr); err != nil {
		t.Fatal(err)
	}
	c.RecoverNode(owner)
	other := ""
	for k := 0; other == ""; k++ {
		if name := fmt.Sprintf("other-%d", k); c.ring.Owner(name) == warm {
			other = name
		}
	}
	if err := c.Deploy(other, config.Runtime{Image: "node:10"}, workload.QRApp(workload.Node)); err != nil {
		t.Fatal(err)
	}
	// A minute later a cold start of other is in flight on the warm node
	// when qr's second request arrives.
	sched := []trace.Request{{At: time.Minute, Class: 1}, {At: time.Minute, Class: 0}}
	results, err := c.Run(sched, func(cl int) string {
		if cl == 0 {
			return "qr"
		}
		return other
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Node != warm {
			t.Fatalf("request %d on %s (err %v), want %s", i, r.Node, r.Err, warm)
		}
	}
	if !results[1].Reused {
		t.Fatal("qr's second request did not reuse the warm runtime beside other's request")
	}
}

// The simulated cluster places with hotc-router's rule: given the same
// members and the same warm counts, both put the same node first, and
// a function warm nowhere goes to its ring owner on both.
func TestClusterPlacesLikeRouter(t *testing.T) {
	c := New(Options{Nodes: 3, PrePull: true, Core: core.Options{Interval: time.Hour}})
	t.Cleanup(c.Close)
	names := make([]string, 50)
	// Each sim node gets a server of its own, whose stats are the node's
	// spare runtimes per function and whose invocations all succeed. The
	// router names a member by its URL: the sim node takes its server's
	// URL as its name, so both rings hash the same labels.
	c.ring = kernel.NewRing(0)
	urls := make([]string, 0, len(c.nodes))
	for _, n := range c.nodes {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/system/stats" {
				io.WriteString(w, "ok")
				return
			}
			warm := map[string]int{}
			for _, name := range names {
				warm[name] = n.spare(c.keys[name])
			}
			json.NewEncoder(w).Encode(map[string]any{"warmInstances": warm})
		}))
		t.Cleanup(srv.Close)
		n.Name = srv.URL
		c.ring.Add(n.Name)
		urls = append(urls, n.Name)
	}
	for i := range names {
		names[i] = fmt.Sprintf("fn-%d", i)
		rt := config.Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("F=%d", i)}}
		if err := c.Deploy(names[i], rt, workload.QRApp(workload.Python)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm each function on two nodes straight through their gateways,
	// with counts that tie now and then; every fifth stays cold.
	pending := 0
	for i, name := range names {
		if i%5 == 0 {
			continue
		}
		for off, count := range []int{1 + i%3, (i / 3) % 3} {
			n := c.nodes[(i+off)%len(c.nodes)]
			for k := 0; k < count; k++ {
				pending++
				c.sched.At(0, func() { n.Gateway.Handle(name, trace.Request{}, func(faas.Result) { pending-- }) })
			}
		}
	}
	for pending > 0 && c.sched.Step() {
	}

	// A bare router over the same members.
	rt, err := router.New(router.Config{Nodes: urls, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	rt.PollOnce()
	mux := rt.Routes()

	offOwner := 0
	for i, name := range names {
		sim := c.place(name)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/function/"+name, nil))
		if got := "http://" + rec.Header().Get(router.NodeHeader); got != sim.Name {
			t.Errorf("%s: router placed on %s, the sim on %s", name, got, sim.Name)
		}
		if sim.Name != c.ring.Owner(name) {
			offOwner++
			if i%5 == 0 {
				t.Errorf("%s is warm nowhere but was placed on %s, not its ring owner", name, sim.Name)
			}
		}
	}
	if offOwner == 0 {
		t.Fatal("warmth never overrode the ring owner: the comparison proves nothing")
	}
}
