// Package cluster extends HotC to a multi-host backend — the paper's
// §VII future work: "in a distributed system, a few containers are
// extremely popular... Some host machines might become overloaded and
// we need to consider load balancing when reusing the hot runtime."
//
// A Cluster is a set of nodes, each a full single-host HotC stack
// (engine, pool, adaptive controller, gateway) sharing one virtual
// clock. A router places each request on a node; the reuse-affinity
// policy consults a directory (a map shared by the simulated nodes) that
// tracks which nodes hold warm runtimes for which keys, falling back
// to least-loaded placement — reuse when possible, balance otherwise.
package cluster

import (
	"fmt"
	"sort"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/simclock"
	"hotc/internal/stack"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// Routing selects the placement policy.
type Routing int

const (
	// RoundRobin cycles through nodes.
	RoundRobin Routing = iota
	// LeastLoaded picks the node with the fewest in-flight requests.
	LeastLoaded
	// ReuseAffinity prefers a node holding a warm runtime for the
	// request's key (per the directory), tie-breaking by load.
	ReuseAffinity
)

// String returns the routing policy name.
func (r Routing) String() string {
	switch r {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case ReuseAffinity:
		return "reuse-affinity"
	default:
		return fmt.Sprintf("cluster.Routing(%d)", int(r))
	}
}

// Node is one backend host: a complete single-host HotC deployment on
// the cluster's clock.
type Node struct {
	// Name identifies the node.
	Name string
	*stack.Stack

	inFlight  int
	served    int
	failedReq int
	failed    bool
}

// Served reports how many requests the node has completed
// successfully. Failures are tracked separately (FailedRequests) so
// load accounting never mistakes error churn for useful work.
func (n *Node) Served() int { return n.served }

// FailedRequests reports how many requests the node completed with an
// error.
func (n *Node) FailedRequests() int { return n.failedReq }

// Options configure a Cluster.
type Options struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Profile is the per-node hardware profile (default server).
	Profile costmodel.Profile
	// Routing is the placement policy (default ReuseAffinity).
	Routing Routing
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
	return o
}

// Cluster is the multi-host deployment.
type Cluster struct {
	sched *simclock.Scheduler
	opts  Options
	nodes []*Node
	dir   map[string]int // dirKey(key, node) → advertised live runtimes

	apps   map[string]workload.App
	specs  map[string]*container.Spec
	rrNext int
}

// New builds a cluster.
func New(opts Options) *Cluster {
	o := opts.withDefaults()
	c := &Cluster{
		sched: simclock.New(),
		opts:  o,
		dir:   make(map[string]int),
		apps:  make(map[string]workload.App),
		specs: make(map[string]*container.Spec),
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
		c.nodes = append(c.nodes, &Node{Name: fmt.Sprintf("node-%d", i), Stack: st})
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

// FailNode marks a node as failed: the router skips it and its
// directory entries are removed. Returns false for an invalid index.
func (c *Cluster) FailNode(i int) bool {
	if i < 0 || i >= len(c.nodes) {
		return false
	}
	c.nodes[i].failed = true
	for _, spec := range c.specs {
		// A failed node cannot serve, so advertise zero.
		delete(c.dir, dirKey(spec.Key(), c.nodes[i].Name))
	}
	return true
}

// RecoverNode brings a failed node back and republishes its warm
// runtimes: the node's pool survived the (simulated) outage, so
// re-advertising every registered key restores reuse-affinity traffic
// immediately instead of waiting for the node to win a least-loaded
// tie-break on each key.
func (c *Cluster) RecoverNode(i int) bool {
	if i < 0 || i >= len(c.nodes) {
		return false
	}
	node := c.nodes[i]
	node.failed = false
	for _, spec := range c.specs {
		c.publish(node, spec.Key())
	}
	return true
}

// Deploy registers the function on every node.
func (c *Cluster) Deploy(name string, rt config.Runtime, app workload.App) error {
	for _, n := range c.nodes {
		if err := n.Stack.Deploy(faas.Function{Name: name, Runtime: rt, App: app}); err != nil {
			return fmt.Errorf("cluster: deploying on %s: %w", n.Name, err)
		}
		c.specs[name], _ = n.Gateway.Spec(name)
	}
	c.apps[name] = app
	return nil
}

// Functions returns the names deployed on every node, sorted.
func (c *Cluster) Functions() []string {
	names := make([]string, 0, len(c.apps))
	for name := range c.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func dirKey(key config.Key, node string) string {
	return string(key) + "|" + node
}

// publish advertises a node's live runtime count for a key in the
// directory. Live (rather than currently-available) is the right
// affinity signal: a runtime that is busy or in post-request cleanup
// will be reusable momentarily, and the router's in-flight check
// prevents queueing onto saturated nodes.
func (c *Cluster) publish(node *Node, key config.Key) {
	c.dir[dirKey(key, node.Name)] = node.HotC.Pool().NumLive(key)
}

// warmOn reads the directory for a node's advertised availability.
func (c *Cluster) warmOn(node *Node, key config.Key) int {
	return c.dir[dirKey(key, node.Name)]
}

// route picks the node for a request targeting the named function.
func (c *Cluster) route(name string) (*Node, error) {
	alive := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.failed {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("cluster: no nodes available")
	}
	switch c.opts.Routing {
	case RoundRobin:
		n := alive[c.rrNext%len(alive)]
		c.rrNext++
		return n, nil
	case LeastLoaded:
		return c.leastLoaded(alive), nil
	case ReuseAffinity:
		spec, ok := c.specs[name]
		if !ok {
			return c.leastLoaded(alive), nil
		}
		// Among nodes advertising spare warm runtimes, take the least
		// loaded; otherwise balance by load.
		var warm []*Node
		for _, n := range alive {
			if c.warmOn(n, spec.Key()) > n.inFlight {
				warm = append(warm, n)
			}
		}
		if len(warm) > 0 {
			return c.leastLoaded(warm), nil
		}
		return c.leastLoaded(alive), nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing %v", c.opts.Routing)
	}
}

// leastLoaded picks the node with the fewest in-flight requests,
// rotating the scan start so ties spread round-robin instead of
// pinning the first node.
func (c *Cluster) leastLoaded(nodes []*Node) *Node {
	start := c.rrNext % len(nodes)
	c.rrNext++
	best := nodes[start]
	for i := 1; i < len(nodes); i++ {
		n := nodes[(start+i)%len(nodes)]
		if n.inFlight < best.inFlight {
			best = n
		}
	}
	return best
}

// Result is a per-request outcome, annotated with the serving node.
type Result struct {
	faas.Result
	// Node that served the request ("" when routing failed).
	Node string
}

// Handle routes and serves one request. Must run on the scheduler
// goroutine at arrival time.
func (c *Cluster) Handle(name string, req trace.Request, done func(Result)) {
	node, err := c.route(name)
	if err != nil {
		done(Result{Result: faas.Result{Request: req, Function: name, Err: err}})
		return
	}
	node.inFlight++
	node.Gateway.Handle(name, req, func(r faas.Result) {
		node.inFlight--
		if r.Err == nil {
			node.served++
		} else {
			node.failedReq++
		}
		// A node that failed while this request was in flight must not
		// republish: FailNode just deleted its directory entries, and
		// resurrecting them would keep pulling reuse-affinity traffic
		// onto a dead node.
		if spec, ok := c.specs[name]; ok && !node.failed {
			c.publish(node, spec.Key())
		}
		done(Result{Result: r, Node: node.Name})
	})
	// Advertise the post-routing state so concurrent arrivals in the
	// same instant see the claimed runtime as taken.
	if spec, ok := c.specs[name]; ok {
		c.publish(node, spec.Key())
	}
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
