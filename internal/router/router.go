package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotc/internal/obs"
)

// Policy selects how the router places requests.
type Policy string

// The placement policies.
const (
	// PolicyWarmAware is the default: warm-affinity first, then the
	// consistent-hash owner, spilling to ring successors on
	// saturation.
	PolicyWarmAware Policy = "warm"
	// PolicyRoundRobin ignores warmth and hashing — the baseline the
	// cluster bench compares against.
	PolicyRoundRobin Policy = "rr"
)

// Config tunes the router.
type Config struct {
	// Nodes are the initial hotcd base URLs (scheme optional).
	Nodes []string
	// Policy selects placement (default PolicyWarmAware).
	Policy Policy
	// VNodes is the virtual-node multiplier (default DefaultVNodes).
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
	// Registry receives hotc_router_* metrics (nil = a private one).
	Registry *obs.Registry
	// Client overrides the upstream HTTP client (tests).
	Client *http.Client
	// TraceSeed seeds the trace-ID generator (0 = random).
	TraceSeed uint64
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
	cfg    Config
	reg    *obs.Registry
	ids    *obs.IDGen
	client *http.Client

	mu    sync.RWMutex
	ring  *Ring
	nodes map[string]*node
	// deploys replays through-the-router deployments to late joiners,
	// so a node added mid-run serves the same functions: one entry per
	// function name (see recordDeploy).
	deploys []deploy

	rr atomic.Uint64

	srv      *http.Server
	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	mRequests  *obs.CounterVec
	mLatency   *obs.HistogramVec
	mSpills    *obs.Counter
	mHealthy   *obs.GaugeVec
	mWarm      *obs.GaugeVec
	mPollErrs  *obs.CounterVec
	mNodes     *obs.Gauge
	mDrains    *obs.Counter
	mMembershp *obs.CounterVec
}

// New builds a router over the configured nodes. Nodes are assumed
// healthy until the first probe says otherwise, so a freshly started
// cluster serves immediately.
func New(cfg Config) (*Router, error) {
	if cfg.Policy == "" {
		cfg.Policy = PolicyWarmAware
	}
	if cfg.Policy != PolicyWarmAware && cfg.Policy != PolicyRoundRobin {
		return nil, fmt.Errorf("router: unknown policy %q", cfg.Policy)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
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
	reg := cfg.Registry
	if reg == nil {
		reg = obs.New()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	rt := &Router{
		cfg:    cfg,
		reg:    reg,
		ids:    obs.NewIDGen(cfg.TraceSeed),
		client: client,
		ring:   NewRing(cfg.VNodes),
		nodes:  make(map[string]*node),
		stopCh: make(chan struct{}),
	}
	rt.mRequests = reg.CounterVec("hotc_router_requests_total",
		"Routed invocations by placement outcome: warm (warm-affinity hit), hash (ring owner), spill (ring successor after saturation), rr (round-robin policy), no_node (no healthy target), error (every attempt failed).",
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

// normalizeURL defaults the scheme and strips a trailing slash.
func normalizeURL(u string) (string, error) {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if u == "" {
		return "", fmt.Errorf("router: empty node URL")
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		return "", fmt.Errorf("router: unsupported node URL %q", u)
	}
	return u, nil
}

func nodeName(url string) string {
	name := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	return name
}

// Join adds a node to the ring and replays deployments made through
// the router so the newcomer serves the same functions. It reports
// the normalized URL.
func (rt *Router) Join(rawURL string) (string, error) {
	u, err := normalizeURL(rawURL)
	if err != nil {
		return "", err
	}
	rt.mu.Lock()
	if _, ok := rt.nodes[u]; ok {
		rt.mu.Unlock()
		return u, nil
	}
	n := &node{url: u, name: nodeName(u), healthy: true, warm: map[string]int{}}
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
		resp, err := rt.client.Post(u+"/system/functions", "application/json", bytes.NewReader(dep.body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return u, nil
}

// Leave removes a node from the ring, reporting whether it was a
// member. In-flight requests to it complete; new placements skip it
// immediately.
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
	rt.mNodes.Set(float64(size))
	rt.mHealthy.With(n.name).Set(0)
	rt.mWarm.With(n.name).Set(0)
	rt.mMembershp.With("leave").Inc()
	return true
}

// Drain toggles a member's drain state: the node's /system/drain is
// called and the router stops (or resumes) placing new work there
// without waiting for the next poll.
func (rt *Router) Drain(rawURL string, on bool) error {
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
	req, err := http.NewRequest(method, u+"/system/drain", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return fmt.Errorf("router: drain %s: %w", u, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: drain %s: status %d", u, resp.StatusCode)
	}
	n.mu.Lock()
	n.draining = on
	n.mu.Unlock()
	return nil
}

// Nodes returns every member's status, sorted by URL.
func (rt *Router) Nodes() []NodeStatus {
	rt.mu.RLock()
	members := make([]*node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		members = append(members, n)
	}
	rt.mu.RUnlock()
	out := make([]NodeStatus, 0, len(members))
	for _, n := range members {
		out = append(out, n.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
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
	rt.mu.RLock()
	members := make([]*node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		members = append(members, n)
	}
	rt.mu.RUnlock()
	var wg sync.WaitGroup
	for _, n := range members {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			rt.probe(n)
		}(n)
	}
	wg.Wait()
}

func (rt *Router) probe(n *node) {
	resp, err := rt.client.Get(n.url + "/system/stats")
	if err != nil {
		rt.recordMiss(n)
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		rt.recordMiss(n)
		return
	}
	var st nodeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
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
		case <-rt.stopCh:
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

// StartOn binds the router to an explicit address and launches the
// poll loop.
func (rt *Router) StartOn(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.srv = &http.Server{Handler: rt.Routes()}
	rt.wg.Add(2)
	go func() {
		defer rt.wg.Done()
		rt.srv.Serve(ln)
	}()
	go rt.pollLoop()
	rt.PollOnce()
	return "http://" + ln.Addr().String(), nil
}

// Stop shuts the listener and poll loop down.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() {
		close(rt.stopCh)
		if rt.srv != nil {
			rt.srv.Close()
		}
	})
	rt.wg.Wait()
}
