package cluster

import (
	"fmt"
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/costmodel"
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
	c := newCluster(t, Options{Nodes: 3, Routing: RoundRobin})
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
	// Single-threaded serial traffic: affinity should route every
	// request after the first to the same warm node.
	aff := newCluster(t, Options{Nodes: 4, Routing: ReuseAffinity})
	affRes, err := aff.Run(serialSchedule(12, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	rr := newCluster(t, Options{Nodes: 4, Routing: RoundRobin})
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

func TestLeastLoadedBalancesParallel(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3, Routing: LeastLoaded})
	// 30 simultaneous requests: load counts force an even spread.
	var schedule []trace.Request
	for i := 0; i < 30; i++ {
		schedule = append(schedule, trace.Request{At: 0, Round: 0})
	}
	if _, err := c.Run(schedule, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	if imb := c.LoadImbalance(); imb > 0.2 {
		t.Fatalf("least-loaded imbalance = %v", imb)
	}
}

func TestAffinityStillBalancesUnderLoad(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3, Routing: ReuseAffinity})
	// Heavy parallel rounds: affinity must not funnel everything to
	// one node once it is saturated (warm count <= inFlight check).
	sched := trace.Parallel{Threads: 12, Interval: 30 * time.Second, Rounds: 6}.Generate()
	if _, err := c.Run(sched, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	if imb := c.LoadImbalance(); imb > 1.0 {
		t.Fatalf("affinity imbalance = %v, nodes=%v", imb, servedCounts(c))
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
	c := newCluster(t, Options{Nodes: 3, Routing: ReuseAffinity})
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
	c2 := newCluster(t, Options{Nodes: 1, Routing: RoundRobin})
	if c2.FailNode(5) || c2.RecoverNode(-1) {
		t.Fatal("out-of-range node indices accepted")
	}
}

// Regression: FailNode deletes the node's directory entries, but the
// completion callback of a request already in flight used to republish
// them unconditionally — a failed node kept attracting reuse-affinity
// traffic. The publish is now gated on the node's failed flag.
func TestFailNodeWithRequestInFlightKeepsDirectoryClean(t *testing.T) {
	c := newCluster(t, Options{Nodes: 2, Routing: ReuseAffinity})
	key := c.specs["qr"].Key()
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
		if !c.FailNode(0) {
			t.Error("FailNode rejected valid index")
		}
	})
	for !completed && c.sched.Step() {
	}
	if !completed {
		t.Fatal("request never completed")
	}
	if res.Node != "node-0" {
		t.Fatalf("request served by %s, want node-0", res.Node)
	}
	if got := c.warmOn(c.nodes[0], key); got != 0 {
		t.Fatalf("failed node still advertises %d warm runtimes", got)
	}
}

// Regression: served used to count every completion, errors included,
// so LoadImbalance and Served mistook failure churn for useful work.
func TestServedCountsSuccessesOnly(t *testing.T) {
	c := newCluster(t, Options{Nodes: 2, Routing: RoundRobin})
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
	served, failed := 0, 0
	for _, n := range c.Nodes() {
		served += n.Served()
		failed += n.FailedRequests()
	}
	if served != 4 || failed != 3 {
		t.Fatalf("served/failed = %d/%d, want 4/3", served, failed)
	}
}

// Regression: RecoverNode used to flip the failed flag without
// republishing warm-runtime entries, so a recovered node got no
// reuse-affinity traffic until least-loaded luck sent it a request.
func TestRecoveryRestoresAffinityWithinOneRequest(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3, Routing: ReuseAffinity})
	first, err := c.Run(serialSchedule(4, time.Minute), func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	warmNode := first[len(first)-1].Node // affinity pinned the stream here
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
	c := newCluster(t, Options{Nodes: 2, Routing: LeastLoaded})
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

func TestRoutingNames(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range []Routing{RoundRobin, LeastLoaded, ReuseAffinity} {
		if s := r.String(); s == "" || seen[s] {
			t.Fatalf("bad routing name %q", s)
		} else {
			seen[s] = true
		}
	}
	if Routing(42).String() == "" {
		t.Fatal("unknown routing should render")
	}
}

func TestReuseRateEmpty(t *testing.T) {
	if ReuseRate(nil) != 0 {
		t.Fatal("empty reuse rate != 0")
	}
}

func TestMultipleFunctionsIndependentAffinity(t *testing.T) {
	c := newCluster(t, Options{Nodes: 3, Routing: ReuseAffinity})
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
