package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"hotc/internal/faas/live"
	"hotc/internal/obs"
)

// Response headers the router adds on top of the node's own.
const (
	// NodeHeader names the node that served the request.
	NodeHeader = "X-Hotc-Node"
	// AttemptsHeader counts placements tried, 1 = first choice.
	AttemptsHeader = "X-Hotc-Router-Attempts"
)

// candidate is one node in a request's fallback chain.
type candidate struct {
	n *node
	// kind is the placement outcome if this candidate serves as the
	// first attempt: warm, hash or rr. Any later attempt is a spill.
	kind string
}

// placement builds the ordered fallback chain for a function:
// warm-affinity first (most advertised warm instances wins), then the
// hash ring from the key's owner, capped at MaxAttempts. Unhealthy
// and draining nodes never appear.
func (rt *Router) placement(fn string) []candidate {
	rt.mu.RLock()
	ringOrder := rt.ring.Ordered(fn)
	byURL := make(map[string]*node, len(rt.nodes))
	for u, n := range rt.nodes {
		byURL[u] = n
	}
	rt.mu.RUnlock()

	// usable holds each placeable node's warm count for fn, read once
	// so ordering is consistent even while the poller updates.
	usable := make(map[string]int, len(byURL))
	for u, n := range byURL {
		n.mu.Lock()
		ok := n.healthy && !n.draining
		w := n.warm[fn]
		n.mu.Unlock()
		if ok {
			usable[u] = w
		}
	}
	if len(usable) == 0 {
		return nil
	}

	var out []candidate
	if rt.cfg.Policy == PolicyRoundRobin {
		urls := make([]string, 0, len(usable))
		for u := range usable {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		start := int(rt.rr.Add(1)-1) % len(urls)
		for i := range urls {
			out = append(out, candidate{byURL[urls[(start+i)%len(urls)]], "rr"})
		}
	} else {
		warmURLs := make([]string, 0, len(usable))
		for u, w := range usable {
			if w > 0 {
				warmURLs = append(warmURLs, u)
			}
		}
		sort.Slice(warmURLs, func(i, j int) bool {
			if usable[warmURLs[i]] != usable[warmURLs[j]] {
				return usable[warmURLs[i]] > usable[warmURLs[j]]
			}
			return warmURLs[i] < warmURLs[j]
		})
		seen := make(map[string]bool, len(usable))
		for _, u := range warmURLs {
			seen[u] = true
			out = append(out, candidate{byURL[u], "warm"})
		}
		for _, u := range ringOrder {
			if _, ok := usable[u]; ok && !seen[u] {
				seen[u] = true
				out = append(out, candidate{byURL[u], "hash"})
			}
		}
	}
	if len(out) > rt.cfg.MaxAttempts {
		out = out[:rt.cfg.MaxAttempts]
	}
	return out
}

// Routes builds the router's HTTP mux.
func (rt *Router) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/function/", rt.handleFunction)
	mux.HandleFunc("/system/functions", rt.handleFunctions)
	mux.HandleFunc("/system/nodes", rt.handleNodes)
	mux.HandleFunc("/system/drain", rt.handleDrain)
	mux.HandleFunc("/system/stats", rt.handleStats)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.reg.WritePrometheus(w)
	})
	return mux
}

// saturated reports whether an upstream status is a spill signal: the
// node is shedding (429) or refusing placements (503, including
// drain).
func saturated(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

func (rt *Router) handleFunction(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/function/")
	if name == "" || strings.ContainsRune(name, '/') {
		http.Error(w, "router: use /function/<name>", http.StatusNotFound)
		return
	}
	start := time.Now()

	// One trace crosses router -> node -> watchdog: adopt the caller's
	// trace ID when the traceparent is valid, mint one otherwise, and
	// hand the node a child context whose parent is the router's span.
	tc, ok := obs.ParseTraceparent(r.Header.Get(live.TraceparentHeader))
	if !ok {
		tc = obs.TraceContext{TraceID: rt.ids.NewTraceID(), Flags: 1}
	}
	tc.SpanID = rt.ids.NewSpanID()
	traceparent := tc.Traceparent()

	// Bodies up to SpillMaxBody buffer for replay so a spill can
	// resend them; larger bodies stream to the first candidate only.
	var buf []byte
	var tail io.Reader
	replayable := true
	if r.Body != nil {
		b, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.SpillMaxBody+1))
		if err != nil {
			http.Error(w, "router: reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(b)) > rt.cfg.SpillMaxBody {
			replayable = false
			tail = io.MultiReader(bytes.NewReader(b), r.Body)
		} else {
			buf = b
		}
	}

	cands := rt.placement(name)
	if len(cands) == 0 {
		rt.finish(w, "no_node", start, tc, 0, nil, nil)
		return
	}
	var lastResp *http.Response
	var lastNode *node
	attempts := 0
	for i, c := range cands {
		if i > 0 && !replayable {
			break
		}
		attempts++
		// Optimistically consume one cached warm slot so concurrent
		// requests between polls spread instead of dogpiling.
		c.n.mu.Lock()
		if c.n.warm[name] > 0 {
			c.n.warm[name]--
		}
		c.n.mu.Unlock()

		var body io.Reader = tail
		if replayable {
			body = bytes.NewReader(buf)
		}
		resp, err := rt.forward(r, c.n, name, body, traceparent)
		if err != nil {
			// Transport failure: the node is likely gone. Count it
			// towards the probe threshold and spill.
			rt.recordMiss(c.n)
			if i < len(cands)-1 && replayable {
				rt.mSpills.Inc()
			}
			continue
		}
		if saturated(resp.StatusCode) {
			if resp.Header.Get(live.DrainingHeader) == "true" {
				rt.mDrains.Inc()
			}
			if i < len(cands)-1 && replayable {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rt.mSpills.Inc()
				continue
			}
			lastResp, lastNode = resp, c.n
			break
		}
		outcome := c.kind
		if i > 0 {
			outcome = "spill"
		}
		rt.finish(w, outcome, start, tc, attempts, c.n, resp)
		return
	}
	// Every candidate was saturated or unreachable. Relay the last
	// saturation response when there is one (it carries Retry-After
	// and the drain marker); otherwise synthesize a 503.
	rt.finish(w, "error", start, tc, attempts, lastNode, lastResp)
}

// forward proxies the request to one node, propagating headers and
// the router's trace context.
func (rt *Router) forward(orig *http.Request, n *node, name string, body io.Reader, traceparent string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(orig.Context(), orig.Method, n.url+"/function/"+name, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range orig.Header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Content-Length":
			continue
		}
		req.Header[k] = vs
	}
	req.Header.Set(live.TraceparentHeader, traceparent)
	return rt.client.Do(req)
}

// finish relays the upstream response (or synthesizes a failure),
// stamps the router headers and records the request metrics.
func (rt *Router) finish(w http.ResponseWriter, outcome string, start time.Time, tc obs.TraceContext, attempts int, n *node, resp *http.Response) {
	rt.mRequests.With(outcome).Inc()
	rt.mLatency.With(outcome).ObserveDuration(time.Since(start))

	h := w.Header()
	status := http.StatusServiceUnavailable
	var body io.ReadCloser
	if resp != nil {
		for k, vs := range resp.Header {
			h[k] = vs
		}
		status = resp.StatusCode
		body = resp.Body
	}
	if n != nil {
		h.Set(NodeHeader, n.name)
	}
	if attempts > 0 {
		h.Set(AttemptsHeader, strconv.Itoa(attempts))
	}
	if h.Get(live.TraceIDHeader) == "" {
		h.Set(live.TraceIDHeader, tc.TraceIDString())
	}
	if resp == nil {
		h.Set("Retry-After", "1")
		msg := "router: no node accepted the request"
		if outcome == "no_node" {
			msg = "router: no healthy node available"
		}
		http.Error(w, msg, status)
		return
	}
	w.WriteHeader(status)
	io.Copy(w, body)
	body.Close()
}

// recordDeploy keeps an accepted deployment for replay to late joiners,
// keyed by function name: a redeploy replaces the earlier body in place
// (last body wins, first-deploy order kept), so the log is bounded by
// the number of functions, not the number of deploys.
func (rt *Router) recordDeploy(body []byte) {
	// Decoded the way the nodes decode it: at least one of them just
	// accepted this body, so a name is there to be read.
	var spec struct {
		Name string `json:"name"`
	}
	json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range rt.deploys {
		if rt.deploys[i].name == spec.Name {
			rt.deploys[i].body = body
			return
		}
	}
	rt.deploys = append(rt.deploys, deploy{spec.Name, body})
}

// handleFunctions fans a deployment out to every member (so any node
// can serve any key) and records it for replay to late joiners; GET
// proxies the listing from the first healthy node.
func (rt *Router) handleFunctions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		statuses := rt.Nodes()
		if len(statuses) == 0 {
			http.Error(w, "router: no members", http.StatusServiceUnavailable)
			return
		}
		okCount := 0
		var firstErr string
		for _, st := range statuses {
			resp, err := rt.client.Post(st.URL+"/system/functions", "application/json", bytes.NewReader(body))
			if err != nil {
				if firstErr == "" {
					firstErr = err.Error()
				}
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				if firstErr == "" {
					firstErr = fmt.Sprintf("%s: %s", st.Name, strings.TrimSpace(string(b)))
				}
				continue
			}
			okCount++
		}
		if okCount == 0 {
			http.Error(w, "router: deploy failed on every node: "+firstErr, http.StatusBadGateway)
			return
		}
		rt.recordDeploy(body)
		writeJSON(w, http.StatusAccepted, struct {
			Deployed int    `json:"deployedNodes"`
			Total    int    `json:"totalNodes"`
			Error    string `json:"error,omitempty"`
		}{okCount, len(statuses), firstErr})
	case http.MethodGet:
		for _, st := range rt.Nodes() {
			if !st.Healthy {
				continue
			}
			resp, err := rt.client.Get(st.URL + "/system/functions")
			if err != nil {
				continue
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		writeJSON(w, http.StatusOK, []string{})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleNodes is the membership API: GET lists, POST {"url"} joins,
// DELETE ?url= leaves.
func (rt *Router) handleNodes(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rt.Nodes())
	case http.MethodPost:
		var req struct {
			URL string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		u, err := rt.Join(req.URL)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rt.PollOnce()
		writeJSON(w, http.StatusOK, struct {
			URL   string `json:"url"`
			Nodes int    `json:"nodes"`
		}{u, len(rt.Nodes())})
	case http.MethodDelete:
		u := r.URL.Query().Get("url")
		if u == "" {
			http.Error(w, "router: ?url= required", http.StatusBadRequest)
			return
		}
		if !rt.Leave(u) {
			http.Error(w, "router: not a member", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Nodes int `json:"nodes"`
		}{len(rt.Nodes())})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleDrain forwards a drain (POST) or undrain (DELETE) to the node
// named by ?url= and updates the router's placement state in the same
// step.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	u := r.URL.Query().Get("url")
	if u == "" {
		http.Error(w, "router: ?url= required", http.StatusBadRequest)
		return
	}
	if err := rt.Drain(u, r.Method == http.MethodPost); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		URL      string `json:"url"`
		Draining bool   `json:"draining"`
	}{u, r.Method == http.MethodPost})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	nodes := rt.Nodes()
	healthy := 0
	for _, n := range nodes {
		if n.Healthy {
			healthy++
		}
	}
	rt.mu.RLock()
	deploys := len(rt.deploys)
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, struct {
		Policy       Policy       `json:"policy"`
		Nodes        []NodeStatus `json:"nodes"`
		Healthy      int          `json:"healthyNodes"`
		Deployments  int          `json:"routedDeployments"`
		PollInterval string       `json:"pollInterval"`
	}{rt.cfg.Policy, nodes, healthy, deploys, rt.cfg.PollInterval.String()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
