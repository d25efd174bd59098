package hotc_test

import (
	"testing"
	"time"

	"hotc"
)

func newTestCluster(t *testing.T, routing hotc.Routing) *hotc.ClusterSimulation {
	t.Helper()
	cs, err := hotc.NewClusterSimulation(hotc.ClusterConfig{
		Nodes:       3,
		Routing:     routing,
		LocalImages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	app, err := hotc.AppQR("python")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Deploy(hotc.FunctionSpec{
		Name:    "svc",
		Runtime: hotc.Runtime{Image: "python:3.8"},
		App:     app,
	}); err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestClusterFacadeBasics(t *testing.T) {
	cs := newTestCluster(t, hotc.RoutingWarm)
	if len(cs.NodeNames()) != 3 {
		t.Fatalf("nodes = %v", cs.NodeNames())
	}
	results, err := cs.Replay(hotc.SerialWorkload(30*time.Second, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := hotc.SummarizeCluster(results)
	if st.Requests != 12 {
		t.Fatalf("requests = %d", st.Requests)
	}
	// Warm placement: everything after the first request reuses.
	if st.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1 under warm placement", st.ColdStarts)
	}
	for _, r := range results {
		if r.Node == "" {
			t.Fatal("result missing node attribution")
		}
	}
	total := 0
	for _, n := range cs.ServedByNode() {
		total += n
	}
	if total != 12 {
		t.Fatalf("served total = %d", total)
	}
}

func TestClusterFacadeFailover(t *testing.T) {
	cs := newTestCluster(t, hotc.RoutingRoundRobin)
	if !cs.FailNode(0) || cs.FailNode(99) {
		t.Fatal("FailNode index handling wrong")
	}
	results, err := cs.Replay(hotc.SerialWorkload(time.Minute, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("request failed during failover: %v", r.Err)
		}
		if r.Node == "node-0" {
			t.Fatal("failed node served a request")
		}
	}
	if !cs.RecoverNode(0) {
		t.Fatal("RecoverNode rejected valid index")
	}
}

func TestClusterFacadeValidation(t *testing.T) {
	if _, err := hotc.NewClusterSimulation(hotc.ClusterConfig{Profile: "quantum"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := hotc.NewClusterSimulation(hotc.ClusterConfig{Routing: "warp"}); err == nil {
		t.Fatal("unknown routing accepted")
	}
	cs, err := hotc.NewClusterSimulation(hotc.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Replay(hotc.SerialWorkload(time.Second, 1), nil); err == nil {
		t.Fatal("replay with no functions should fail")
	}
}

// The façade speaks hotc-router's vocabulary and no other: the names of
// the policies the simulated cluster used to have are refused.
func TestClusterRoutingNames(t *testing.T) {
	for _, r := range []hotc.Routing{"", hotc.RoutingWarm, hotc.RoutingRoundRobin} {
		cs, err := hotc.NewClusterSimulation(hotc.ClusterConfig{Routing: r})
		if err != nil {
			t.Fatalf("routing %q: %v", r, err)
		}
		cs.Close()
	}
	for _, r := range []hotc.Routing{"round-robin", "least-loaded", "reuse-affinity"} {
		if _, err := hotc.NewClusterSimulation(hotc.ClusterConfig{Routing: r}); err == nil {
			t.Fatalf("routing %q accepted", r)
		}
	}
}
