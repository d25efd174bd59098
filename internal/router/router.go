// Package router is the multi-node front tier: an HTTP reverse proxy
// that places function invocations across a fleet of hotcd nodes. The
// paper's runtime-reuse economics only pay off when requests for a
// function keep landing where its warm runtimes live, so placement
// (kernel.Place) is a consistent-hash ring over function keys biased
// by each node's advertised warm-instance count, with bounded spill to
// ring successors when the preferred node is saturated or draining.
package router

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotc/internal/hop"
	"hotc/internal/kernel"
	"hotc/internal/obs"
)

// NewRing and PolicyWarmAware are the kernel's, under the names the
// benchmark harness uses.
func NewRing(vnodes int) *kernel.Ring { return kernel.NewRing(vnodes) }

const PolicyWarmAware = kernel.PolicyWarmAware

// Config tunes the router.
type Config struct {
	// Nodes are the initial hotcd base URLs (scheme optional).
	Nodes []string
	// Policy selects placement (default kernel.PolicyWarmAware).
	Policy kernel.Policy
	// VNodes is the virtual-node multiplier (default kernel.DefaultVNodes).
	VNodes int
	// PollInterval is the stats-poll/health-probe period (default
	// 500ms).
	PollInterval time.Duration
	// ProbeFailures is how many consecutive missed probes mark a node
	// unhealthy (default 3). A transport error on a proxied request
	// counts as a missed probe, so a killed node is usually out of
	// rotation before its next poll.
	ProbeFailures int
	// MaxAttempts bounds the fallback chain per request: the first
	// placement plus spills (default 3, clamped to the node count).
	MaxAttempts int
	// SpillMaxBody is the largest request body buffered for replay on
	// spill (default 1 MiB). Larger bodies stream to the first
	// candidate only.
	SpillMaxBody int64
}

// deploy is one function's latest accepted deployment body.
type deploy struct {
	name string
	body []byte
}

// node is the router's view of one hotcd.
type node struct {
	// url is the normalized base URL ("http://host:port").
	url string
	// name labels metrics and response headers (host:port).
	name string
	// addr is the host:port invocations dial, host the Host header they
	// carry, path the URL's path prefix, and tls whether the member is
	// an https:// one.
	addr, host, path string
	tls              bool

	mu       sync.Mutex
	healthy  bool
	draining bool
	// warm is the latest polled per-function warm-instance count,
	// decremented optimistically on placement so concurrent requests
	// spread instead of dogpiling one warm node between polls.
	warm   map[string]int
	misses int
	// lastPoll is when the node last answered a probe.
	lastPoll time.Time
	// idle is the free list of keep-alive connections, most recently
	// used last, that invocations and control exchanges share; gone is
	// set once the node has left or the router stopped, after which no
	// connection is kept.
	idle []*upstream
	gone bool
}

func (n *node) snapshot() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	warm := make(map[string]int, len(n.warm))
	total := 0
	for k, v := range n.warm {
		warm[k] = v
		total += v
	}
	return NodeStatus{
		URL: n.url, Name: n.name, Healthy: n.healthy, Draining: n.draining,
		Warm: warm, WarmTotal: total, Misses: n.misses,
	}
}

// NodeStatus is one node's state in the /system/nodes listing.
type NodeStatus struct {
	URL       string         `json:"url"`
	Name      string         `json:"name"`
	Healthy   bool           `json:"healthy"`
	Draining  bool           `json:"draining"`
	Warm      map[string]int `json:"warmInstances,omitempty"`
	WarmTotal int            `json:"warmTotal"`
	Misses    int            `json:"probeMisses"`
}

// Router is the front tier: it owns the membership ring, polls every
// node's /system/stats for warmth and drain state, and proxies
// /function/ requests to the placement the policy picks.
type Router struct {
	cfg Config
	reg *obs.Registry
	ids *obs.IDGen
	// dial opens a TCP connection to a member's address; tlsConf
	// secures one to an https:// member.
	dial    func(ctx context.Context, network, addr string) (net.Conn, error)
	tlsConf *tls.Config

	mu    sync.RWMutex
	ring  *kernel.Ring
	nodes map[string]*node
	// deploys replays through-the-router deployments to late joiners,
	// so a node added mid-run serves the same functions: one entry per
	// function name (see recordDeploy).
	deploys []deploy

	rr atomic.Uint64

	srv *hop.Server
	// stopped ends with Stop: the poll loop exits and probes in flight
	// are abandoned.
	stopped context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mRequests  *obs.CounterVec
	mLatency   *obs.HistogramVec
	mSpills    *obs.Counter
	mHealthy   *obs.GaugeVec
	mWarm      *obs.GaugeVec
	mPollErrs  *obs.CounterVec
	mNodes     *obs.Gauge
	mDrains    *obs.Counter
	mMembershp *obs.CounterVec
	// The router's wire books (hotc_wire_*{role="router"}): the body
	// bytes its front door and its node connections send, and the node
	// connections it dials anew.
	wireBody func(copied, spliced int64)
	redialed func()
}

// New builds a router over the configured nodes. Nodes are assumed
// healthy until the first probe says otherwise, so a freshly started
// cluster serves immediately.
func New(cfg Config) (*Router, error) {
	if cfg.Policy == "" {
		cfg.Policy = kernel.PolicyWarmAware
	}
	if cfg.Policy != kernel.PolicyWarmAware && cfg.Policy != kernel.PolicyRoundRobin {
		return nil, fmt.Errorf("router: unknown policy %q", cfg.Policy)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = kernel.DefaultVNodes
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 3
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.SpillMaxBody <= 0 {
		cfg.SpillMaxBody = 1 << 20
	}
	reg := obs.New()
	rt := &Router{
		cfg:     cfg,
		reg:     reg,
		ids:     obs.NewIDGen(0),
		dial:    (&net.Dialer{}).DialContext,
		tlsConf: &tls.Config{NextProtos: []string{"http/1.1"}},
		ring:    kernel.NewRing(cfg.VNodes),
		nodes:   make(map[string]*node),
	}
	rt.stopped, rt.stop = context.WithCancel(context.Background())
	rt.mRequests = reg.CounterVec("hotc_router_requests_total",
		"Routed invocations by placement outcome: warm (warm-affinity hit), hash (ring owner), spill (ring successor after saturation), rr (round-robin policy), no_node (no healthy target), error (every attempt failed), canceled (the client gave up).",
		"outcome")
	rt.mLatency = reg.HistogramVec("hotc_router_request_duration_ms",
		"End-to-end routed request latency in milliseconds, labeled by placement outcome.",
		obs.DefaultLatencyBucketsMS(), "outcome")
	rt.mSpills = reg.Counter("hotc_router_spill_attempts_total",
		"Fallback hops to a ring successor after a 429/503 or transport error.")
	rt.mHealthy = reg.GaugeVec("hotc_router_node_healthy",
		"1 when the node is answering probes, 0 after ProbeFailures consecutive misses.",
		"node")
	rt.mWarm = reg.GaugeVec("hotc_router_node_warm_instances",
		"Warm instances the node advertised at its last poll, summed across functions.",
		"node")
	rt.mPollErrs = reg.CounterVec("hotc_router_poll_failures_total",
		"Stats probes that failed, per node.",
		"node")
	rt.mNodes = reg.Gauge("hotc_router_nodes",
		"Current membership size.")
	rt.mDrains = reg.Counter("hotc_router_drain_rejections_total",
		"Placements refused by a draining node and retried elsewhere.")
	rt.mMembershp = reg.CounterVec("hotc_router_membership_changes_total",
		"Join and leave operations.",
		"op")
	rt.wireBody = kernel.WireBodyBytes(reg, "router")
	rt.redialed = kernel.WireRedials(reg, "router")
	for _, u := range cfg.Nodes {
		if _, err := rt.Join(u); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// Registry exposes the router's metrics registry (served at /metrics).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Config returns the configuration the router runs with: the Config
// given to New after its defaults were resolved.
func (rt *Router) Config() Config { return rt.cfg }

// parseMember parses a node URL: the scheme defaults to http and a
// trailing slash is dropped. The URL must name an http or https host
// with at most a path — no userinfo, query or fragment — and url.Parse
// refuses control bytes and a host it could not write as one.
func parseMember(raw string) (*url.URL, error) {
	s := strings.TrimRight(strings.TrimSpace(raw), "/")
	if s == "" {
		return nil, fmt.Errorf("router: empty node URL")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("router: node URL: %w", err)
	}
	switch {
	case u.Scheme != "http" && u.Scheme != "https":
		return nil, fmt.Errorf("router: unsupported node URL %q", s)
	case u.Host == "":
		return nil, fmt.Errorf("router: node URL %q names no host", s)
	case u.User != nil:
		return nil, fmt.Errorf("router: node URL %q carries credentials", s)
	case u.RawQuery != "" || u.ForceQuery || strings.ContainsRune(s, '#'):
		return nil, fmt.Errorf("router: node URL %q has a query or fragment", s)
	case strings.IndexFunc(u.Host, func(r rune) bool { return r >= 0x80 }) >= 0:
		return nil, fmt.Errorf("router: node URL %q has a non-ASCII host", s)
	}
	return u, nil
}

// normalizeURL is a member's key: its URL as parseMember reads it.
func normalizeURL(raw string) (string, error) {
	u, err := parseMember(raw)
	if err != nil {
		return "", err
	}
	return u.String(), nil
}

func nodeName(u string) string {
	return strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")
}

// newNode is a member's record for a parsed URL. The dial address gets
// the scheme's default port when the URL names none.
func newNode(u *url.URL) *node {
	secure := u.Scheme == "https"
	addr := u.Host
	if u.Port() == "" {
		port := "80"
		if secure {
			port = "443"
		}
		addr = net.JoinHostPort(u.Hostname(), port)
	}
	key := u.String()
	return &node{url: key, name: nodeName(key), addr: addr, host: u.Host, path: u.EscapedPath(), tls: secure,
		healthy: true, warm: map[string]int{}}
}

// Join adds a node to the ring and replays deployments made through
// the router so the newcomer serves the same functions; a replay
// exchange ends at Stop. It reports the normalized URL.
func (rt *Router) Join(rawURL string) (string, error) {
	parsed, err := parseMember(rawURL)
	if err != nil {
		return "", err
	}
	u := parsed.String()
	rt.mu.Lock()
	if _, ok := rt.nodes[u]; ok {
		rt.mu.Unlock()
		return u, nil
	}
	n := newNode(parsed)
	rt.nodes[u] = n
	rt.ring.Add(u)
	replay := make([]deploy, len(rt.deploys))
	copy(replay, rt.deploys)
	size := len(rt.nodes)
	rt.mu.Unlock()

	rt.mNodes.Set(float64(size))
	rt.mHealthy.With(n.name).Set(1)
	rt.mMembershp.With("join").Inc()
	for _, dep := range replay {
		rt.control(rt.stopped, n, http.MethodPost, "/system/functions", dep.body)
	}
	return u, nil
}

// Leave removes a node from the ring, reporting whether it was a
// member. In-flight requests to it complete; new placements skip it
// immediately, and its idle connections are closed.
func (rt *Router) Leave(rawURL string) bool {
	u, err := normalizeURL(rawURL)
	if err != nil {
		return false
	}
	rt.mu.Lock()
	n, ok := rt.nodes[u]
	if ok {
		delete(rt.nodes, u)
		rt.ring.Remove(u)
	}
	size := len(rt.nodes)
	rt.mu.Unlock()
	if !ok {
		return false
	}
	n.closeIdle()
	rt.mNodes.Set(float64(size))
	rt.mHealthy.With(n.name).Set(0)
	rt.mWarm.With(n.name).Set(0)
	rt.mMembershp.With("leave").Inc()
	return true
}

// Drain toggles a member's drain state: the node's /system/drain is
// called, in an exchange ctx bounds, and the router stops (or resumes)
// placing new work there without waiting for the next poll.
func (rt *Router) Drain(ctx context.Context, rawURL string, on bool) error {
	u, err := normalizeURL(rawURL)
	if err != nil {
		return err
	}
	rt.mu.RLock()
	n, ok := rt.nodes[u]
	rt.mu.RUnlock()
	if !ok {
		return fmt.Errorf("router: %s is not a member", u)
	}
	method := http.MethodPost
	if !on {
		method = http.MethodDelete
	}
	status, _, err := rt.control(ctx, n, method, "/system/drain", nil)
	if err != nil {
		return fmt.Errorf("router: drain %s: %w", u, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("router: drain %s: status %d", u, status)
	}
	n.mu.Lock()
	n.draining = on
	n.mu.Unlock()
	return nil
}

// members returns every member, sorted by URL.
func (rt *Router) members() []*node {
	rt.mu.RLock()
	out := make([]*node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		out = append(out, n)
	}
	rt.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

// Nodes returns every member's status, sorted by URL.
func (rt *Router) Nodes() []NodeStatus {
	members := rt.members()
	out := make([]NodeStatus, len(members))
	for i, n := range members {
		out[i] = n.snapshot()
	}
	return out
}

// nodeStats is the slice of hotcd's /system/stats the poller reads.
type nodeStats struct {
	Draining bool           `json:"draining"`
	Warm     map[string]int `json:"warmInstances"`
}

// PollOnce probes every member once, synchronously — the poll loop's
// body, exported so tests drive probes deterministically.
func (rt *Router) PollOnce() {
	var wg sync.WaitGroup
	for _, n := range rt.members() {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			rt.probe(n)
		}(n)
	}
	wg.Wait()
}

// probe reads one node's /system/stats. It is bounded by PollInterval,
// so a node that accepts the connection and never answers is a miss
// by the next poll instead of freezing every node's state.
func (rt *Router) probe(n *node) {
	ctx, cancel := context.WithTimeout(rt.stopped, rt.cfg.PollInterval)
	defer cancel()
	status, reply, err := rt.control(ctx, n, http.MethodGet, "/system/stats", nil)
	var st nodeStats
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &st) != nil {
		rt.recordMiss(n)
		return
	}
	total := 0
	for _, v := range st.Warm {
		total += v
	}
	n.mu.Lock()
	n.healthy = true
	n.misses = 0
	n.draining = st.Draining
	n.warm = st.Warm
	if n.warm == nil {
		n.warm = map[string]int{}
	}
	n.lastPoll = time.Now()
	n.mu.Unlock()
	rt.mHealthy.With(n.name).Set(1)
	rt.mWarm.With(n.name).Set(float64(total))
}

// recordMiss counts a failed probe (or a transport error on a proxied
// request) and flips the node unhealthy at the threshold.
func (rt *Router) recordMiss(n *node) {
	rt.mPollErrs.With(n.name).Inc()
	n.mu.Lock()
	n.misses++
	wentDown := n.healthy && n.misses >= rt.cfg.ProbeFailures
	if wentDown {
		n.healthy = false
	}
	n.mu.Unlock()
	if wentDown {
		rt.mHealthy.With(n.name).Set(0)
	}
}

func (rt *Router) pollLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopped.Done():
			return
		case <-t.C:
			rt.PollOnce()
		}
	}
}

// Start binds the router to a random loopback port. It returns the
// base URL.
func (rt *Router) Start() (string, error) {
	return rt.StartOn("127.0.0.1:0")
}

// StartOn binds the router to an explicit address, serves it with the
// hop's front door and launches the poll loop.
func (rt *Router) StartOn(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.srv = &hop.Server{Handler: rt.Routes(), Front: true}
	rt.srv.OnRefusal(kernel.WireRefusals(rt.reg, "router"))
	rt.srv.OnPanic(kernel.WirePanics(rt.reg, "router"))
	rt.srv.OnBody(rt.wireBody)
	rt.wg.Add(2)
	go func() {
		defer rt.wg.Done()
		rt.srv.Serve(ln)
	}()
	go rt.pollLoop()
	rt.PollOnce()
	return "http://" + ln.Addr().String(), nil
}

// Stop shuts the listener and poll loop down, ends the control
// exchanges bound to it, lets requests being served finish for up to a
// second — past that their clients' connections close, which ends
// their contexts — and closes every idle upstream connection. A
// request still in flight closes its upstream connection when it ends.
func (rt *Router) Stop() {
	rt.stop()
	if rt.srv != nil {
		rt.srv.Stop()
	}
	rt.wg.Wait()
	rt.mu.RLock()
	for _, n := range rt.nodes {
		n.closeIdle()
	}
	rt.mu.RUnlock()
}
