package hotc

import (
	"fmt"
	"time"

	"hotc/internal/cluster"
	"hotc/internal/core"
	"hotc/internal/kernel"
	"hotc/internal/trace"
)

// Routing selects the multi-host placement policy: the vocabulary of
// hotc-router, whose placement rule the simulated cluster runs.
type Routing string

// The available routing policies for ClusterSimulation.
const (
	// RoutingWarm places a request on the node with the most spare warm
	// runtimes for its function, else on the function's owner on a
	// consistent-hash ring — the paper's §VII direction.
	RoutingWarm Routing = "warm"
	// RoutingRoundRobin cycles through the nodes, ignoring warmth.
	RoutingRoundRobin Routing = "rr"
)

// ClusterConfig configures a multi-host simulation.
type ClusterConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Profile is the per-node hardware profile (default ProfileServer).
	Profile Profile
	// Routing is the placement policy (default RoutingWarm).
	Routing Routing
	// Seed drives latency jitter (0 = noiseless).
	Seed int64
	// ControlInterval is each node's HotC control-loop period.
	ControlInterval time.Duration
	// LocalImages pre-pulls the catalog on every node.
	LocalImages bool
}

// ClusterSimulation is a multi-host HotC deployment: every node runs a
// full single-host stack, and a router places requests across them.
type ClusterSimulation struct {
	c *cluster.Cluster
}

// NewClusterSimulation wires a cluster from the config.
func NewClusterSimulation(cfg ClusterConfig) (*ClusterSimulation, error) {
	prof, err := cfg.Profile.lower()
	if err != nil {
		return nil, err
	}
	switch cfg.Routing {
	case "", RoutingWarm, RoutingRoundRobin:
	default:
		return nil, fmt.Errorf("hotc: unknown routing %q (want warm or rr)", cfg.Routing)
	}
	c := cluster.New(cluster.Options{
		Nodes:   cfg.Nodes,
		Profile: prof,
		Routing: kernel.Policy(cfg.Routing),
		Seed:    cfg.Seed,
		PrePull: cfg.LocalImages,
		Core:    core.Options{Interval: cfg.ControlInterval},
	})
	return &ClusterSimulation{c: c}, nil
}

// Deploy registers the function on every node.
func (cs *ClusterSimulation) Deploy(fn FunctionSpec) error {
	return cs.c.Deploy(fn.Name, fn.Runtime, fn.App)
}

// ClusterRequestResult is the outcome of one routed request.
type ClusterRequestResult struct {
	// Function that served the request and the Node it ran on.
	Function string
	Node     string
	// Latency is the end-to-end latency.
	Latency time.Duration
	// Reused reports warm-runtime reuse.
	Reused bool
	// Round is the trace round.
	Round int
	// Err is non-nil on failure.
	Err error
}

// Replay routes the workload across the cluster. classFn maps request
// classes to function names; nil is allowed only when a single function
// is deployed, which then serves everything.
func (cs *ClusterSimulation) Replay(w Workload, classFn func(class int) string) ([]ClusterRequestResult, error) {
	if classFn == nil {
		name, err := soleFunction(cs.c.Functions())
		if err != nil {
			return nil, err
		}
		classFn = func(int) string { return name }
	}
	return cluster.RunAs(cs.c, []trace.Request(w), classFn, func(r cluster.Result) ClusterRequestResult {
		return ClusterRequestResult{
			Function: r.Function,
			Node:     r.Node,
			Latency:  r.Timestamps.Total(),
			Reused:   r.Reused,
			Round:    r.Request.Round,
			Err:      r.Err,
		}
	})
}

// FailNode takes node i out of rotation; RecoverNode brings it back.
func (cs *ClusterSimulation) FailNode(i int) bool { return cs.c.FailNode(i) }

// RecoverNode returns a failed node to rotation.
func (cs *ClusterSimulation) RecoverNode(i int) bool { return cs.c.RecoverNode(i) }

// NodeNames returns the node identifiers.
func (cs *ClusterSimulation) NodeNames() []string {
	names := make([]string, 0, len(cs.c.Nodes()))
	for _, n := range cs.c.Nodes() {
		names = append(names, n.Name)
	}
	return names
}

// ServedByNode reports requests completed per node.
func (cs *ClusterSimulation) ServedByNode() map[string]int {
	out := make(map[string]int)
	for _, n := range cs.c.Nodes() {
		out[n.Name] = n.Served()
	}
	return out
}

// LoadImbalance reports (max-min)/mean of per-node served counts.
func (cs *ClusterSimulation) LoadImbalance() float64 { return cs.c.LoadImbalance() }

// Close stops every node's background machinery.
func (cs *ClusterSimulation) Close() { cs.c.Close() }

// SummarizeCluster aggregates routed results.
func SummarizeCluster(results []ClusterRequestResult) Stats {
	plain := make([]RequestResult, len(results))
	for i, r := range results {
		plain[i] = RequestResult{
			Function: r.Function,
			Latency:  r.Latency,
			Reused:   r.Reused,
			Round:    r.Round,
			Err:      r.Err,
		}
	}
	return Summarize(plain)
}
