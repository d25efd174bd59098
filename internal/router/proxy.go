package router

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hotc/internal/admission"
	"hotc/internal/faas/live"
	"hotc/internal/hop"
	"hotc/internal/kernel"
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

// placement builds a function's fallback chain over the healthy,
// non-draining members, capped at MaxAttempts. Each member's warm
// count is read once, so the order is consistent while the poller
// updates it.
func (rt *Router) placement(fn string) []candidate {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	views := make([]kernel.View, 0, len(rt.nodes))
	for u, n := range rt.nodes {
		n.mu.Lock()
		if n.healthy && !n.draining {
			views = append(views, kernel.View{Name: u, Warm: n.warm[fn]})
		}
		n.mu.Unlock()
	}
	choices := kernel.Place(rt.cfg.Policy, fn, rt.ring, views, rt.rr.Add(1)-1, rt.cfg.MaxAttempts)
	out := make([]candidate, len(choices))
	for i, c := range choices {
		out[i] = candidate{rt.nodes[c.Name], c.Kind}
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

// saturated reports whether an upstream reply is a spill signal: the
// node is shedding (429) or refusing placements (503, including
// drain). A 429 the node shed for the request's own deadline is not:
// another node would start that deadline afresh, so it is the answer.
func saturated(resp *http.Response) bool {
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return resp.Header.Get(live.RejectedHeader) != string(admission.ReasonDeadline)
	case http.StatusServiceUnavailable:
		return true
	}
	return false
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
	// resend them, in one read of the declared length when there is
	// one; larger bodies stream to the first candidate only.
	var buf []byte
	var tail io.Reader
	replayable := true
	if r.Body != nil {
		var b []byte
		var err error
		if r.ContentLength >= 0 && r.ContentLength <= rt.cfg.SpillMaxBody {
			b = make([]byte, r.ContentLength)
			_, err = io.ReadFull(r.Body, b)
		} else {
			b, err = io.ReadAll(io.LimitReader(r.Body, rt.cfg.SpillMaxBody+1))
		}
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

	// The client's deadline is its whole budget: each attempt carries
	// what is left of it, never less than 1 ms, as 0 tells a node "no
	// deadline". A value a node would refuse goes on as it came.
	var budget time.Duration
	if h := r.Header.Get(live.DeadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
			budget = time.Duration(ms) * time.Millisecond
		}
	}

	cands := rt.placement(name)
	if len(cands) == 0 {
		rt.finish(w, r, "no_node", start, tc, 0, nil, nil, nil)
		return
	}
	var lastResp *http.Response
	var lastNode *node
	var lastConn *upstream
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

		if budget > 0 {
			r.Header.Set(live.DeadlineHeader, strconv.FormatInt(max((budget-time.Since(start)).Milliseconds(), 1), 10))
		}
		resp, u, err := rt.forward(r, c.n, name, buf, tail, traceparent)
		if err != nil && r.Context().Err() != nil {
			// The client gave up: no node failed, and nobody waits for
			// another attempt.
			rt.finish(w, r, "canceled", start, tc, attempts, c.n, nil, nil)
			return
		}
		if err != nil {
			// Transport failure: the node is likely gone. Count it
			// towards the probe threshold and spill.
			rt.recordMiss(c.n)
			if i < len(cands)-1 && replayable {
				rt.mSpills.Inc()
			}
			continue
		}
		if saturated(resp) {
			if resp.Header.Get(live.DrainingHeader) == "true" {
				rt.mDrains.Inc()
			}
			if i < len(cands)-1 && replayable {
				io.Copy(io.Discard, resp.Body)
				u.release()
				rt.mSpills.Inc()
				continue
			}
			lastResp, lastNode, lastConn = resp, c.n, u
			break
		}
		outcome := c.kind
		if i > 0 {
			outcome = "spill"
		}
		rt.finish(w, r, outcome, start, tc, attempts, c.n, resp, u)
		return
	}
	// Every candidate was saturated or unreachable. Relay the last
	// saturation response when there is one (it carries Retry-After
	// and the drain marker); otherwise synthesize a 503.
	rt.finish(w, r, "error", start, tc, attempts, lastNode, lastResp, lastConn)
}

// forward proxies the request to one node, on the request's goroutine.
func (rt *Router) forward(orig *http.Request, n *node, name string, buf []byte, tail io.Reader, traceparent string) (*http.Response, *upstream, error) {
	// name is the decoded path segment: escaped again, it cannot end the
	// request line early, and the node decodes the same name.
	head := hop.Head{Method: orig.Method, Path: n.path + "/function/" + url.PathEscape(name), Header: orig.Header, Traceparent: traceparent}
	return rt.send(orig.Context(), n, head, buf, tail, orig.ContentLength)
}

// jsonBody is the header of a control request: a JSON body, or none.
var jsonBody = http.Header{"Content-Type": {"application/json"}}

// control is one control-plane exchange with n — a probe, a deploy or
// its replay, a drain — on the connections invocations use, the reply
// read whole: read to its end, the connection goes back on n's free
// list. The exchange ends with ctx or with Stop.
func (rt *Router) control(ctx context.Context, n *node, method, path string, body []byte) (status int, reply []byte, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer context.AfterFunc(rt.stopped, cancel)()
	defer cancel()
	resp, u, err := rt.send(ctx, n, hop.Head{Method: method, Path: n.path + path, Header: jsonBody}, body, nil, 0)
	if err != nil {
		return 0, nil, err
	}
	status = resp.StatusCode
	reply, err = io.ReadAll(resp.Body)
	u.release()
	return status, reply, err
}

// send does one exchange with n over one of the node's keep-alive
// connections: the body is buf, or tail of the given length when tail
// is not nil. The response is the hop's own, its body the node's wire
// body, so a relay of it splices; the caller ends the exchange with
// u.release once done with it. A pooled connection the node closed
// while it sat idle fails before any response byte: a replayable body
// then goes once more on a fresh connection, and that is no failure of
// the node.
func (rt *Router) send(ctx context.Context, n *node, head hop.Head, buf []byte, tail io.Reader, length int64) (*http.Response, *upstream, error) {
	var replay *bytes.Reader
	body := tail
	if tail == nil {
		replay = bytes.NewReader(buf)
		body, length = replay, int64(len(buf))
	}
	u, reused, err := rt.conn(ctx, n)
	for err == nil {
		var resp *http.Response
		if resp, err = u.c.RoundTrip(ctx, head, body, length); err == nil {
			return resp, u, nil
		}
		if !reused || replay == nil || ctx.Err() != nil || !hop.Unanswered(err) {
			break
		}
		replay.Reset(buf)
		rt.redialed()
		u, err = rt.dialUpstream(ctx, n)
		reused = false
	}
	return nil, nil, err
}

// maxIdlePerNode caps a node's free list of keep-alive connections.
const maxIdlePerNode = 64

// upstream is one keep-alive connection to a node. Between exchanges
// it sits on its node's free list; during one, send's caller holds it.
type upstream struct {
	n *node
	c *hop.Conn
}

// release ends the exchange: a connection the hop can reuse goes back
// on its node's free list unless the list is full or the node has
// left; any other is closed.
func (u *upstream) release() {
	if !u.c.Finish() {
		return // Finish closed it
	}
	n := u.n
	n.mu.Lock()
	if !n.gone && len(n.idle) < maxIdlePerNode {
		n.idle = append(n.idle, u)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	u.c.Close()
}

// conn hands out a connection to n: the most recently used idle one,
// else a fresh dial. reused reports which.
func (rt *Router) conn(ctx context.Context, n *node) (u *upstream, reused bool, err error) {
	n.mu.Lock()
	if k := len(n.idle); k > 0 {
		u = n.idle[k-1]
		n.idle[k-1] = nil
		n.idle = n.idle[:k-1]
		n.mu.Unlock()
		return u, true, nil
	}
	n.mu.Unlock()
	u, err = rt.dialUpstream(ctx, n)
	return u, false, err
}

// dialUpstream opens a connection to n, through crypto/tls for an
// https:// member, whose certificate must name the host it is dialed
// at.
func (rt *Router) dialUpstream(ctx context.Context, n *node) (*upstream, error) {
	conn, err := rt.dial(ctx, "tcp", n.addr)
	if err == nil && n.tls {
		conf := rt.tlsConf.Clone()
		conf.ServerName, _, _ = net.SplitHostPort(n.addr)
		secure := tls.Client(conn, conf)
		if err = secure.HandshakeContext(ctx); err != nil {
			conn.Close()
		}
		conn = secure
	}
	if err != nil {
		return nil, err
	}
	u := &upstream{n: n, c: hop.New(conn, n.host)}
	u.c.OnBody(rt.wireBody)
	return u, nil
}

// closeIdle closes the free list and keeps it closed: a connection
// coming back from an exchange still in flight is closed, not kept.
func (n *node) closeIdle() {
	n.mu.Lock()
	idle := n.idle
	n.idle, n.gone = nil, true
	n.mu.Unlock()
	for _, u := range idle {
		u.c.Close()
	}
}

// finish relays the upstream response, received on u, and ends u's
// exchange (or synthesizes a failure), stamps the router headers and
// records the request metrics once the relay is over: a reply the node
// cut short is an error and a miss against the node, as a transport
// error is, and the client's connection is dropped once it is booked,
// so the client too reads the reply cut, never whole; one the client
// stopped taking is canceled.
func (rt *Router) finish(w http.ResponseWriter, r *http.Request, outcome string, start time.Time, tc obs.TraceContext, attempts int, n *node, resp *http.Response, u *upstream) {
	h := w.Header()
	if n != nil {
		h.Set(NodeHeader, n.name)
	}
	if attempts > 0 {
		h.Set(AttemptsHeader, strconv.Itoa(attempts))
	}
	if resp == nil || resp.Header.Get(live.TraceIDHeader) == "" {
		h.Set(live.TraceIDHeader, tc.TraceIDString())
	}
	cut := false
	if resp == nil {
		h.Set("Retry-After", "1")
		status, msg := http.StatusServiceUnavailable, "router: no node accepted the request"
		switch outcome {
		case "no_node":
			msg = "router: no healthy node available"
		case "canceled":
			// Nobody reads it; 499 is what the gateway answers a hang-up.
			status, msg = 499, "router: client closed request"
		}
		http.Error(w, msg, status)
	} else {
		_, err := hop.Relay(w, resp, nil)
		u.release()
		switch {
		case err == nil:
		case hop.ReadFailed(err) && r.Context().Err() == nil:
			outcome = "error"
			rt.recordMiss(n)
			cut = true
		default:
			outcome = "canceled"
		}
	}
	rt.mRequests.With(outcome).Inc()
	rt.mLatency.With(outcome).ObserveDuration(time.Since(start))
	if cut {
		panic(http.ErrAbortHandler) // the front door drops the connection
	}
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

// maxDeployBody bounds a deployment spec: a longer one is refused
// whole, never forwarded cut short.
const maxDeployBody = 1 << 20

// handleFunctions fans a deployment out to every member (so any node
// can serve any key) and records it for replay to late joiners; GET
// proxies the listing from the first healthy node.
func (rt *Router) handleFunctions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxDeployBody+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxDeployBody {
			http.Error(w, "router: deployment spec over 1 MiB", http.StatusRequestEntityTooLarge)
			return
		}
		members := rt.members()
		if len(members) == 0 {
			http.Error(w, "router: no members", http.StatusServiceUnavailable)
			return
		}
		okCount := 0
		var firstErr string
		for _, n := range members {
			status, reply, err := rt.control(r.Context(), n, http.MethodPost, "/system/functions", body)
			if err != nil {
				if firstErr == "" {
					firstErr = fmt.Sprintf("%s: %v", n.name, err)
				}
				continue
			}
			if status >= 300 {
				if firstErr == "" {
					firstErr = fmt.Sprintf("%s: %s", n.name, strings.TrimSpace(string(reply)))
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
		}{okCount, len(members), firstErr})
	case http.MethodGet:
		for _, n := range rt.members() {
			if !n.snapshot().Healthy {
				continue
			}
			resp, u, err := rt.send(r.Context(), n, hop.Head{Method: http.MethodGet, Path: n.path + "/system/functions"}, nil, nil, 0)
			if err != nil {
				continue
			}
			w.Header().Set("Content-Type", "application/json")
			hop.Relay(w, resp, nil)
			u.release()
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
	if err := rt.Drain(r.Context(), u, r.Method == http.MethodPost); err != nil {
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
		Policy       kernel.Policy `json:"policy"`
		Nodes        []NodeStatus  `json:"nodes"`
		Healthy      int           `json:"healthyNodes"`
		Deployments  int           `json:"routedDeployments"`
		PollInterval string        `json:"pollInterval"`
	}{rt.cfg.Policy, nodes, healthy, deploys, rt.cfg.PollInterval.String()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
