// Package cluster extends HotC to a multi-host backend — the paper's
// §VII future work: "in a distributed system, a few containers are
// extremely popular... Some host machines might become overloaded and
// we need to consider load balancing when reusing the hot runtime."
//
// A Cluster is a set of nodes, each a full single-host HotC stack
// (engine, pool, adaptive controller, gateway) sharing one virtual
// clock. Each request is placed with the placement rule hotc-router
// ships (kernel.Place): a node holding a spare warm runtime for the
// function first, else the function's owner on a consistent-hash ring.
package cluster

import (
	"fmt"
	"sort"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/kernel"
	"hotc/internal/simclock"
	"hotc/internal/stack"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// Node is one backend host: a complete single-host HotC deployment on
// the cluster's clock.
type Node struct {
	// Name identifies the node.
	Name string
	*stack.Stack

	// inFlight counts the requests each runtime key has on the node.
	inFlight map[config.Key]int
	served   int
	failed   bool
}

// Served reports how many requests the node has completed
// successfully: failures do not count, so load accounting never
// mistakes error churn for useful work.
func (n *Node) Served() int { return n.served }

// spare reports the node's live runtimes of key that no request of
// key is using: its warmth for placement.
func (n *Node) spare(key config.Key) int {
	return n.HotC.Pool().NumLive(key) - n.inFlight[key]
}

// Options configure a Cluster.
type Options struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Profile is the per-node hardware profile (default server).
	Profile costmodel.Profile
	// Routing is the placement policy (default kernel.PolicyWarmAware).
	Routing kernel.Policy
	// Seed drives per-node latency jitter (0 = noiseless).
	Seed int64
	// Core configures each node's HotC controller.
	Core core.Options
	// PrePull warms each node's layer cache.
	PrePull bool
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Profile.Name == "" {
		o.Profile = costmodel.Server()
	}
	if o.Routing == "" {
		o.Routing = kernel.PolicyWarmAware
	}
	return o
}

// Cluster is the multi-host deployment.
type Cluster struct {
	sched *simclock.Scheduler
	opts  Options
	nodes []*Node
	ring  *kernel.Ring
	// placed counts placements: the round-robin policy's tick.
	placed uint64

	// keys maps each deployed function to its runtime key.
	keys map[string]config.Key
}

// New builds a cluster.
func New(opts Options) *Cluster {
	o := opts.withDefaults()
	c := &Cluster{
		sched: simclock.New(),
		opts:  o,
		ring:  kernel.NewRing(0),
		keys:  make(map[string]config.Key),
	}
	for i := 0; i < o.Nodes; i++ {
		seed := o.Seed
		if seed != 0 {
			seed += int64(i)
		}
		st, err := stack.New(stack.Options{
			Sched:   c.sched,
			Profile: o.Profile,
			Seed:    seed,
			PrePull: o.PrePull,
			Policy:  stack.HotC,
			Core:    o.Core,
		})
		if err != nil {
			panic(fmt.Sprintf("cluster: %v", err)) // unreachable: HotC is a known policy and no faults are configured
		}
		n := &Node{Name: fmt.Sprintf("node-%d", i), Stack: st, inFlight: make(map[config.Key]int)}
		c.nodes = append(c.nodes, n)
		c.ring.Add(n.Name)
	}
	return c
}

// Scheduler exposes the shared virtual clock.
func (c *Cluster) Scheduler() *simclock.Scheduler { return c.sched }

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Close stops every node's controller.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// FailNode marks a node as failed: placement skips it until
// RecoverNode. Returns false for an invalid index.
func (c *Cluster) FailNode(i int) bool {
	if i < 0 || i >= len(c.nodes) {
		return false
	}
	c.nodes[i].failed = true
	return true
}

// RecoverNode brings a failed node back. Its pool survived the
// (simulated) outage, so its warm runtimes draw placements again at
// once.
func (c *Cluster) RecoverNode(i int) bool {
	if i < 0 || i >= len(c.nodes) {
		return false
	}
	c.nodes[i].failed = false
	return true
}

// Deploy registers the function on every node.
func (c *Cluster) Deploy(name string, rt config.Runtime, app workload.App) error {
	for _, n := range c.nodes {
		if err := n.Stack.Deploy(faas.Function{Name: name, Runtime: rt, App: app}); err != nil {
			return fmt.Errorf("cluster: deploying on %s: %w", n.Name, err)
		}
	}
	spec, _ := c.nodes[0].Gateway.Spec(name)
	c.keys[name] = spec.Key()
	return nil
}

// Functions returns the names deployed on every node, sorted.
func (c *Cluster) Functions() []string {
	names := make([]string, 0, len(c.keys))
	for name := range c.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// place picks the node for a request of the named function: the first
// choice of kernel.Place over the nodes that have not failed, or nil
// when every node has.
func (c *Cluster) place(name string) *Node {
	key := c.keys[name]
	views := make([]kernel.View, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.failed {
			views = append(views, kernel.View{Name: n.Name, Warm: n.spare(key)})
		}
	}
	choices := kernel.Place(c.opts.Routing, name, c.ring, views, c.placed, 1)
	if len(choices) == 0 {
		return nil
	}
	c.placed++
	for _, n := range c.nodes {
		if n.Name == choices[0].Name {
			return n
		}
	}
	return nil
}

// Result is a per-request outcome, annotated with the serving node.
type Result struct {
	faas.Result
	// Node that served the request ("" when routing failed).
	Node string
}

// Handle places and serves one request. Must run on the scheduler
// goroutine at arrival time.
func (c *Cluster) Handle(name string, req trace.Request, done func(Result)) {
	node := c.place(name)
	if node == nil {
		done(Result{Result: faas.Result{Request: req, Function: name, Err: fmt.Errorf("cluster: no nodes available")}})
		return
	}
	key := c.keys[name]
	node.inFlight[key]++
	node.Gateway.Handle(name, req, func(r faas.Result) {
		node.inFlight[key]--
		if r.Err == nil {
			node.served++
		}
		done(Result{Result: r, Node: node.Name})
	})
}

// Run replays a schedule against the cluster, stepping the shared
// clock until all responses arrive. Results are in schedule order.
func (c *Cluster) Run(schedule []trace.Request, classFn func(int) string) ([]Result, error) {
	return RunAs(c, schedule, classFn, func(r Result) Result { return r })
}

// RunAs is Run for a caller that keeps its own record of a request: as
// maps each result into it when the request finishes.
func RunAs[R any](c *Cluster, schedule []trace.Request, classFn func(int) string, as func(Result) R) ([]R, error) {
	out := make([]R, len(schedule))
	pending := len(schedule)
	err := faas.Replay(c.sched, schedule, &pending, func(i int, req trace.Request) {
		c.Handle(classFn(req.Class), req, func(r Result) {
			out[i] = as(r)
			pending--
		})
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return out, nil
}

// ReuseRate reports the fraction of successful requests that reused a
// warm runtime.
func ReuseRate(results []Result) float64 {
	reused, n := 0, 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		n++
		if r.Reused {
			reused++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(reused) / float64(n)
}

// LoadImbalance reports (max-min)/mean of per-node served counts — 0
// is perfectly balanced.
func (c *Cluster) LoadImbalance() float64 {
	if len(c.nodes) == 0 {
		return 0
	}
	min, max, sum := c.nodes[0].served, c.nodes[0].served, 0
	for _, n := range c.nodes {
		if n.served < min {
			min = n.served
		}
		if n.served > max {
			max = n.served
		}
		sum += n.served
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(c.nodes))
	return float64(max-min) / mean
}
