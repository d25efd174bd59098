// Multi-host backend: the paper's §VII future work — "in a distributed
// system ... some host machines might become overloaded and we need to
// consider load balancing when reusing the hot runtime." A four-node
// HotC cluster serves a popular function under hotc-router's two
// placement policies (rr, and warm: a node with a spare warm runtime
// first, else the function's ring owner), then survives a node failure
// mid-run.
//
// Run with:
//
//	go run ./examples/multihost
package main

import (
	"fmt"
	"log"
	"time"

	"hotc"
)

func newCluster(routing hotc.Routing) *hotc.ClusterSimulation {
	cs, err := hotc.NewClusterSimulation(hotc.ClusterConfig{
		Nodes:           4,
		Routing:         routing,
		Seed:            8,
		ControlInterval: 30 * time.Second,
		LocalImages:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	app, err := hotc.AppQR("python")
	if err != nil {
		log.Fatal(err)
	}
	if err := cs.Deploy(hotc.FunctionSpec{
		Name:    "popular",
		Runtime: hotc.Runtime{Image: "python:3.8"},
		App:     app,
	}); err != nil {
		log.Fatal(err)
	}
	return cs
}

func main() {
	workload := hotc.SerialWorkload(20*time.Second, 60)

	fmt.Printf("%-16s %12s %12s %12s  %s\n",
		"routing", "mean (ms)", "reuse", "imbalance", "served per node")
	for _, routing := range []hotc.Routing{hotc.RoutingRoundRobin, hotc.RoutingWarm} {
		cs := newCluster(routing)
		results, err := cs.Replay(workload, nil)
		if err != nil {
			log.Fatal(err)
		}
		st := hotc.SummarizeCluster(results)
		fmt.Printf("%-16s %12.1f %11.1f%% %12.2f  %v\n",
			routing, st.MeanMS,
			100*float64(st.Reused)/float64(st.Requests),
			cs.LoadImbalance(), cs.ServedByNode())
		cs.Close()
	}

	// Node failure under warm placement.
	cs := newCluster(hotc.RoutingWarm)
	defer cs.Close()
	half := hotc.SerialWorkload(20*time.Second, 30)
	results, err := cs.Replay(half, nil)
	if err != nil {
		log.Fatal(err)
	}
	servedBefore := cs.ServedByNode()
	for i, name := range cs.NodeNames() {
		if servedBefore[name] > 0 {
			cs.FailNode(i) // the node warm placement chose
		}
	}
	results2, err := cs.Replay(half, nil)
	if err != nil {
		log.Fatal(err)
	}
	errs := 0
	for _, r := range append(results, results2...) {
		if r.Err != nil {
			errs++
		}
	}
	fmt.Printf("\nnode failure drill: %d errors; served before %v, after %v\n",
		errs, servedBefore, cs.ServedByNode())
	fmt.Println("Warm placement keeps revisits on warm nodes; the failed node is routed around with a single re-warming cold start.")
}
