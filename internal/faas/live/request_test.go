package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"hotc/internal/admission"
	"hotc/internal/obs"
)

// One warm request through g.handle, end to end in this process —
// handle, the hop, the watchdog's server and the response copy — with a
// prebuilt request and a reused writer, tracing sampled out. The budget
// is the count measured at the commit before handle became a pipeline
// over one stack-allocated request value: the pipeline may not add a
// heap object to a warm hit. verify.sh runs it in its non-race alloc
// pass.
func TestHandleWarmAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed under -race")
	}
	const budget = 66
	g := New(PoolConfig{TraceSampleRate: -1, TraceSlowThreshold: -1})
	defer g.Stop()
	if err := g.Register(Function{Name: "f", Handler: func(b []byte) ([]byte, error) { return b, nil }}); err != nil {
		t.Fatal(err)
	}
	payload := patternedPayload(64)
	body := bytes.NewReader(payload)
	req := httptest.NewRequest("POST", "/function/f", nil)
	req.Body, req.ContentLength = io.NopCloser(body), int64(len(payload))
	w := &discardResponseWriter{}
	call := func() {
		body.Reset(payload)
		clear(w.h)
		w.status, w.n = 0, 0
		g.handle(w, req)
		if w.status != http.StatusOK || w.n != int64(len(payload)) {
			t.Fatalf("status %d, %d bytes (want 200, %d)", w.status, w.n, len(payload))
		}
	}
	call() // the cold boot
	if allocs := testing.AllocsPerRun(500, call); allocs > budget {
		t.Fatalf("a warm g.handle allocates %.1f objects, budget %d", allocs, budget)
	} else {
		t.Logf("warm g.handle: %.1f allocs (budget %d)", allocs, budget)
	}
}

// seriesCount reports how many series a metric family holds.
func seriesCount(t *testing.T, reg *obs.Registry, family string) int {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == family {
			return len(f.Series)
		}
	}
	t.Fatalf("no metric family %s", family)
	return 0
}

// metricSum reads a counter or gauge family out of the registry's own
// snapshot — not through the gateway's handles — summing the series
// whose label values start with the given ones.
func metricSum(t *testing.T, reg *obs.Registry, family string, labelValues ...string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != family {
			continue
		}
		sum := 0.0
		for _, s := range f.Series {
			if len(s.LabelValues) >= len(labelValues) && slices.Equal(s.LabelValues[:len(labelValues)], labelValues) {
				sum += s.Value
			}
		}
		return sum
	}
	t.Fatalf("no metric family %s", family)
	return 0
}

// An unknown function's name comes verbatim from the URL path, so it
// must never become a label: a scan of random paths grows the request
// counter and the latency histogram by one series each, however many
// names it tries.
func TestUnknownFunctionsShareOneSeries(t *testing.T) {
	g := NewGateway(true)
	defer g.Stop()
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	requests := seriesCount(t, g.reg, "hotc_requests_total")
	latency := seriesCount(t, g.reg, "hotc_request_latency_ms")
	const scan = 1000
	for i := 0; i < scan; i++ {
		rec := postRec(t, g, fmt.Sprintf("nope-%d", i), "x")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", rec.Code)
		}
	}
	if got := seriesCount(t, g.reg, "hotc_requests_total") - requests; got != 1 {
		t.Errorf("hotc_requests_total grew by %d series over %d unknown names, want 1", got, scan)
	}
	if got := seriesCount(t, g.reg, "hotc_request_latency_ms") - latency; got != 1 {
		t.Errorf("hotc_request_latency_ms grew by %d series over %d unknown names, want 1", got, scan)
	}
	if got := metricSum(t, g.reg, "hotc_requests_total", "", "error"); got != scan {
		t.Errorf(`hotc_requests_total{function="",outcome="error"} = %v, want %d`, got, scan)
	}
	if got := len(g.TraceSpans()); got != 0 {
		t.Errorf("%d spans kept for 404s: a scan must not flush the ring", got)
	}
}

// The goodput counter is labelled with the tenant the admission queue
// resolved, so a flood of distinct X-Hotc-Tenant values leaves it with
// no more series than the queue tracks tenants — the queue's bound
// (admission.TestTenantCardinalityBounded) is the label's bound.
func TestGoodputTenantsBounded(t *testing.T) {
	g := New(PoolConfig{MaxInFlight: 4, QueueDepth: 4, TenantWeights: map[string]int{"gold": 2}})
	defer g.Stop()
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	const flood = 10_000
	for i := 0; i <= flood; i++ {
		tenant := "gold" // last, when the bound is long spent
		if i < flood {
			tenant = fmt.Sprintf("scan-%d", i)
		}
		rec := postHeader(g, "f", strings.NewReader("x"), map[string]string{TenantHeader: tenant})
		if rec.Code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", tenant, rec.Code)
		}
	}
	tracked := len(g.AdmissionStats()["f"].Tenants)
	if tracked >= flood/2 {
		t.Fatalf("the queue tracks %d tenants after %d distinct names: unbounded", tracked, flood)
	}
	if got := seriesCount(t, g.reg, "hotc_adm_goodput_total"); got != tracked {
		t.Errorf("hotc_adm_goodput_total has %d series, the queue tracks %d tenants", got, tracked)
	}
	if got := metricSum(t, g.reg, "hotc_adm_goodput_total", "gold"); got != 1 {
		t.Errorf(`hotc_adm_goodput_total{tenant="gold"} = %v, want 1: a weighted tenant keeps its own series`, got)
	}
	if got := metricSum(t, g.reg, "hotc_adm_goodput_total"); got != flood+1 {
		t.Errorf("goodput sums to %v, want %d", got, flood+1)
	}
}

// exitRig is one row's gateway over real sockets, serving the one
// function "f" every row drives.
type exitRig struct {
	t    *testing.T
	g    *Gateway
	s    *shard
	base string
	// entered and release gate blockingFn rows; hold is the admission
	// slot a queue row's setup takes so that the measured request queues
	// with no other request in the books.
	entered, release chan struct{}
	hold             *admission.Ticket
}

// reply is what came back on the wire; a nil *reply means the client
// hung up before any status line.
type reply struct {
	status int
	header http.Header
	body   string
}

// post sends the row's one measured request and reads the reply out
// (a truncated body is the row's business, not an error here).
func (rig *exitRig) post(body io.Reader, hdr map[string]string) *reply {
	rig.t.Helper()
	req, err := http.NewRequest(http.MethodPost, rig.base+"/function/f", body)
	if err != nil {
		rig.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rig.t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return &reply{status: resp.StatusCode, header: resp.Header, body: string(b)}
}

// walkAway sends the measured request, waits until the gateway has it
// where the row wants it, and hangs up. The body must be one the
// server has finished reading by then (or none): net/http only notices
// a hang-up once it has.
func (rig *exitRig) walkAway(body io.Reader, there func()) *reply {
	rig.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rig.base+"/function/f", body)
	if err != nil {
		rig.t.Fatal(err)
	}
	gone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	there()
	cancel()
	if err := <-gone; err == nil {
		rig.t.Fatal("the abandoned request got a reply")
	}
	return nil
}

// queued waits until the measured request sits in f's admission queue.
func (rig *exitRig) queued() {
	rig.t.Helper()
	waitAdm(rig.t, rig.g, "f", "one queued", func(st admission.Stats) bool { return st.Queued == 1 })
}

// books is every count one request may move.
type books struct {
	outcomes map[string]float64 // hotc_requests_total{function="f"} by outcome
	latency  uint64             // hotc_request_latency_ms{function="f"} count
	kept     uint64             // spans kept (sample rate 1: one per request)
	slo      uint64             // SLO records
	res      map[string]int     // the /system/stats resilience block
}

func (rig *exitRig) books() books {
	rig.t.Helper()
	b := books{outcomes: map[string]float64{}, res: rig.g.ResilienceCounters()}
	for _, o := range []string{"ok", "error", "rejected", "canceled"} {
		b.outcomes[o] = metricSum(rig.t, rig.g.reg, "hotc_requests_total", "f", o)
	}
	b.latency = rig.s.m.latency.Count()
	b.kept = rig.g.TraceStats().Kept
	for _, o := range rig.g.slo.Report().Objectives {
		if o.Name == obs.SLOGoodput {
			b.slo = o.Windows[len(o.Windows)-1].Total // every record, longest window
		}
	}
	return b
}

// Every way out of handle, driven over real sockets, one request per
// row: whatever the ending, the request is counted under exactly one
// outcome with one latency sample, keeps one span (sample rate 1) with
// the ending's status and event, feeds the SLO monitor once, moves the
// resilience keys the ending names and no other — the breaker is a hair
// trigger, so a fed failure shows as breaker.trips — and leaves the
// pool, the controller's in-flight count and the admission queue at
// rest. This is DESIGN's "Request lifecycle" table, row for row.
func TestEveryExitCountsOnce(t *testing.T) {
	slowBoot := echoFn("f", 5*time.Second)
	failing := Function{Name: "f", Handler: func([]byte) ([]byte, error) { return nil, errors.New("handler said no") }}
	sleepy := Function{Name: "f", Handler: func(b []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return b, nil
	}}
	// dying commits a status line and part of a chunked body, then its
	// watchdog drops the connection (ErrAbortHandler: no log, no reply).
	dying := Function{Name: "f", Stream: func(_ io.Reader, w io.Writer) error {
		w.Write(make([]byte, 64<<10))
		panic(http.ErrAbortHandler)
	}}
	queue := func(depth int) func(*PoolConfig) {
		return func(c *PoolConfig) { c.MaxInFlight, c.QueueDepth = 1, depth }
	}
	holdSlot := func(rig *exitRig) {
		tk, rej := rig.s.adm.Acquire(context.Background(), "holder", time.Time{})
		if rej != nil {
			rig.t.Fatal(rej)
		}
		rig.hold = tk
	}
	capBody := func(c *PoolConfig) { c.MaxBodyBytes = 1 << 10 }
	big := bytes.Repeat([]byte("x"), 4<<10)

	for _, row := range []struct {
		name string
		cfg  func(*PoolConfig)
		fn   *Function                 // nil = echo; blocking rows build theirs from the rig
		pre  func(*exitRig)            // before Start
		set  func(*exitRig)            // after Start, before the books are opened
		do   func(rig *exitRig) *reply // the one measured request
		undo func(*exitRig)            // give back what set or do held

		outcome    string
		spanStatus int
		wire       int               // 0 = the client got nothing
		body       string            // prefix of the reply body
		header     map[string]string // "*" = any non-empty value
		event      string            // span event kind; "" = none but the boot's
		spanErr    bool
		res        map[string]int // resilience keys moved
	}{
		{name: "draining",
			set:     func(rig *exitRig) { rig.g.SetDraining(true) },
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "rejected", spanStatus: 503, wire: 503, body: "live: draining",
			header: map[string]string{DrainingHeader: "true"}, event: "drain-rejected"},
		{name: "bad deadline header",
			do: func(rig *exitRig) *reply {
				return rig.post(strings.NewReader("x"), map[string]string{DeadlineHeader: "soon"})
			},
			outcome: "rejected", spanStatus: 400, wire: 400, body: "live: bad " + DeadlineHeader, spanErr: true},
		{name: "declared oversize body", cfg: capBody,
			do:      func(rig *exitRig) *reply { return rig.post(bytes.NewReader(big), nil) },
			outcome: "rejected", spanStatus: 413, wire: 413, body: "live: request body too large", spanErr: true},
		{name: "chunked oversize body mid-proxy", cfg: capBody,
			do:      func(rig *exitRig) *reply { return rig.post(io.MultiReader(bytes.NewReader(big)), nil) },
			outcome: "rejected", spanStatus: 413, wire: 413, body: "live: request body too large", spanErr: true},
		{name: "breaker open",
			set:     func(rig *exitRig) { rig.g.breakerFailure(rig.s, "boot.failures") },
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "rejected", spanStatus: 503, wire: 503, body: "live: circuit breaker open",
			header: map[string]string{"Retry-After": "*"}, event: "breaker-rejected",
			res: map[string]int{"breaker.rejected": 1}},
		{name: "queue full", cfg: queue(0), set: holdSlot,
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			undo:    func(rig *exitRig) { rig.hold.Done() },
			outcome: "rejected", spanStatus: 429, wire: 429, body: "live: overloaded (queue_full)",
			header: map[string]string{RejectedHeader: "queue_full", "Retry-After": "*"}, event: "admission-rejected"},
		{name: "deadline shed while queued", cfg: queue(4), set: holdSlot,
			do: func(rig *exitRig) *reply {
				// Shedding happens at dispatch: free the slot once the
				// queued request's deadline has passed.
				go func() {
					rig.queued()
					time.Sleep(60 * time.Millisecond)
					rig.hold.Done()
				}()
				return rig.post(strings.NewReader("x"), map[string]string{DeadlineHeader: "30"})
			},
			outcome: "rejected", spanStatus: 429, wire: 429, body: "live: overloaded (deadline)",
			header: map[string]string{RejectedHeader: "deadline", "Retry-After": "*"}, event: "admission-rejected"},
		{name: "client gone while queued", cfg: queue(4), set: holdSlot,
			do:      func(rig *exitRig) *reply { return rig.walkAway(http.NoBody, rig.queued) },
			undo:    func(rig *exitRig) { rig.hold.Done() },
			outcome: "canceled", spanStatus: statusClientClosedRequest, event: "canceled"},
		{name: "gateway stopped while queued", cfg: queue(4), set: holdSlot,
			do: func(rig *exitRig) *reply {
				go func() {
					rig.queued()
					rig.g.Stop()
				}()
				return rig.post(strings.NewReader("x"), nil)
			},
			undo:    func(rig *exitRig) { rig.hold.Done() },
			outcome: "rejected", spanStatus: 503, wire: 503, body: "live: overloaded (stopped)",
			header: map[string]string{RejectedHeader: "stopped"}, event: "admission-rejected"},
		{name: "canceled mid-boot", fn: &slowBoot,
			do: func(rig *exitRig) *reply {
				return rig.walkAway(http.NoBody, func() {
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
						rig.s.mu.Lock()
						booting := rig.s.ctl.InFlight == 1
						rig.s.mu.Unlock()
						if booting {
							return
						}
						if time.Now().After(deadline) {
							rig.t.Fatal("the request never reached its boot")
						}
					}
				})
			},
			outcome: "canceled", spanStatus: statusClientClosedRequest, event: "canceled"},
		{name: "boot failure",
			pre: func(rig *exitRig) {
				rig.g.dial = func(context.Context, string) (net.Conn, error) { return nil, errors.New("dial refused") }
			},
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "error", spanStatus: 502, wire: 502, body: "live: dial watchdog", spanErr: true,
			res: map[string]int{"boot.failures": 1, "breaker.trips": 1}},
		{name: "hop failure",
			set: func(rig *exitRig) {
				rig.post(strings.NewReader("warm"), nil)
				idleInstances(rig.g, "f")[0].wd.Stop() // the watchdog dies under its idle instance
			},
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "error", spanStatus: 502, wire: 502, spanErr: true,
			res: map[string]int{"proxy.failures": 1, "breaker.trips": 1}},
		{name: "backend death mid-stream", fn: &dying,
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "error", spanStatus: 200, wire: 200, spanErr: true,
			res: map[string]int{"proxy.failures": 1, "breaker.trips": 1}},
		{name: "deadline mid-flight", fn: &sleepy,
			do: func(rig *exitRig) *reply {
				return rig.post(strings.NewReader("x"), map[string]string{DeadlineHeader: "40"})
			},
			outcome: "canceled", spanStatus: 504, wire: 504, body: "live: deadline exceeded",
			header: map[string]string{RejectedHeader: "deadline"}, event: "canceled"},
		{name: "client gone mid-flight",
			pre: func(rig *exitRig) {
				if err := rig.g.Register(blockingFn("f", rig.entered, rig.release)); err != nil {
					rig.t.Fatal(err)
				}
			},
			do: func(rig *exitRig) *reply {
				return rig.walkAway(strings.NewReader("x"), func() { <-rig.entered })
			},
			undo:    func(rig *exitRig) { close(rig.release) },
			outcome: "canceled", spanStatus: statusClientClosedRequest, event: "canceled"},
		{name: "ok",
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "ok", spanStatus: 200, wire: 200, body: "echo:x",
			header: map[string]string{"X-Hotc-Reused": "false", BootHeader: "cold"}},
		// The watchdog answers a handler's error with 500 (no builtin path
		// yields a 4xx of the function's own): an error outcome the
		// backend is not blamed for.
		{name: "handler error status", fn: &failing,
			do:      func(rig *exitRig) *reply { return rig.post(strings.NewReader("x"), nil) },
			outcome: "error", spanStatus: 500, wire: 500, body: "handler said no"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := PoolConfig{TraceSampleRate: 1, SLOLatency: time.Hour, BreakerThreshold: 1, BreakerOpenFor: time.Hour}
			if row.cfg != nil {
				row.cfg(&cfg)
			}
			rig := &exitRig{t: t, g: New(cfg), entered: make(chan struct{}, 1), release: make(chan struct{})}
			defer rig.g.Stop()
			fn := echoFn("f", 0)
			if row.fn != nil {
				fn = *row.fn
			}
			if err := rig.g.Register(fn); err != nil {
				t.Fatal(err)
			}
			rig.s = rig.g.shard("f")
			if row.pre != nil {
				row.pre(rig)
			}
			var err error
			if rig.base, err = rig.g.Start(); err != nil {
				t.Fatal(err)
			}
			if row.set != nil {
				row.set(rig)
			}

			before := rig.books()
			got := row.do(rig)
			// conclude's last effect is the span; once it is in, give a
			// second count of anything a moment to show itself.
			for deadline := time.Now().Add(5 * time.Second); rig.g.TraceStats().Kept == before.kept; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the request never concluded: no span kept")
				}
			}
			time.Sleep(20 * time.Millisecond)
			after := rig.books()

			for o, was := range before.outcomes {
				want := 0.0
				if o == row.outcome {
					want = 1
				}
				if moved := after.outcomes[o] - was; moved != want {
					t.Errorf("hotc_requests_total{outcome=%q} moved by %v, want %v", o, moved, want)
				}
			}
			if moved := after.latency - before.latency; moved != 1 {
				t.Errorf("hotc_request_latency_ms took %d samples, want 1", moved)
			}
			if moved := after.kept - before.kept; moved != 1 {
				t.Errorf("%d spans kept, want 1", moved)
			}
			if moved := after.slo - before.slo; moved != 1 {
				t.Errorf("%d SLO records, want 1", moved)
			}
			for _, k := range resilienceKinds {
				if moved := after.res[k.key] - before.res[k.key]; moved != row.res[k.key] {
					t.Errorf("resilience[%q] moved by %d, want %d", k.key, moved, row.res[k.key])
				}
			}

			span := rig.g.TraceSpans()[0]
			if span.Function != "f" || span.Status != row.spanStatus || (span.Err != "") != row.spanErr {
				t.Errorf("span = %s status %d err %q, want f status %d (err: %v)", span.Function, span.Status, span.Err, row.spanStatus, row.spanErr)
			}
			var events []string
			for _, e := range span.Events {
				if e.Kind != "boot" {
					events = append(events, e.Kind)
				}
			}
			if want := strings.Fields(row.event); !slices.Equal(events, want) {
				t.Errorf("span events = %v, want %v", events, want)
			}

			switch {
			case row.wire == 0 && got != nil:
				t.Errorf("a client that hung up was sent %d %q", got.status, got.body)
			case row.wire != 0:
				if got.status != row.wire || !strings.HasPrefix(got.body, row.body) {
					t.Errorf("reply = %d %q, want %d %q...", got.status, got.body, row.wire, row.body)
				}
				if id := got.header.Get(TraceIDHeader); id != span.TraceID {
					t.Errorf("%s = %q, the span's trace is %q", TraceIDHeader, id, span.TraceID)
				}
				for h, want := range row.header {
					if v := got.header.Get(h); v == "" || (want != "*" && v != want) {
						t.Errorf("%s = %q, want %q", h, v, want)
					}
				}
				for _, h := range []string{"Retry-After", RejectedHeader, DrainingHeader} {
					if _, owed := row.header[h]; !owed && got.header.Get(h) != "" {
						t.Errorf("%s = %q on an ending that does not owe it", h, got.header.Get(h))
					}
				}
			}

			if row.undo != nil {
				row.undo(rig)
			}
			if st := rig.g.Stats(); st.Requests != st.Reused+st.ColdStarts {
				t.Errorf("stats = %+v: Requests != Reused + ColdStarts", st)
			}
			if rig.s.adm != nil && rig.s.adm.InFlight() != 0 {
				t.Errorf("%d admission slots still held", rig.s.adm.InFlight())
			}
			checkPool(t, rig.g)
		})
	}
}

// Each JSON view that reports a count a metric family also reports reads
// that family: after a churn that moves every one of them, the view and
// the registry's own snapshot agree exactly — there is no second book to
// drift.
func TestStatsViewsReadTheRegistry(t *testing.T) {
	cfg := testSharing()
	cfg.Prefork, cfg.PreforkSize = true, 1
	cfg.MemoryBudget, cfg.InstanceMemBytes = 1, 1           // one instance fits
	cfg.TraceSampleRate, cfg.TraceSlowThreshold = -1, -1    // plain warm successes are sampled out
	cfg.BreakerThreshold, cfg.BreakerOpenFor = 1, time.Hour // one blamed failure trips it
	g := New(cfg)
	defer g.Stop()
	functions := []string{"lender", "renter", "loner"}
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); g.cold.pool.Booting() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("generic refills never finished")
			}
		}
	}
	g.refillPrefork() // a generic refill
	waitIdleGenerics(t, g, 1)
	for _, step := range []struct{ fn, boot string }{
		{"lender", "generic"}, // nobody to rent from: no_candidate, then the generic
		{"renter", "rented"},  // leases the lender's idle instance: granted
		{"loner", ""},         // opted out: denied_policy; python's layers are cached by now
		{"renter", ""},        // a warm hit, sampled out
	} {
		if g.shard(step.fn) == nil {
			fn := echoFn(step.fn, 0)
			fn.Image, fn.Pull, fn.AppInit = "python:3.8", time.Millisecond, time.Millisecond
			fn.NoShare = step.fn == "loner"
			if err := g.Register(fn); err != nil {
				t.Fatal(err)
			}
		}
		settle()
		rec := postRec(t, g, step.fn, "x")
		if rec.Code != http.StatusOK || (step.boot != "" && rec.Header().Get(BootHeader) != step.boot) {
			t.Fatalf("%s: status %d boot %q, want 200 %q", step.fn, rec.Code, rec.Header().Get(BootHeader), step.boot)
		}
	}
	gone, hangUp := context.WithCancel(context.Background())
	hangUp()
	g.handle(httptest.NewRecorder(), httptest.NewRequest("POST", "/function/renter", strings.NewReader("x")).WithContext(gone))
	settle()
	if g.reclaimMemoryOnce() == 0 { // a budget reclaim, generics first
		t.Fatal("nothing reclaimed over a one-instance budget")
	}
	g.watchdogServeError(errors.New("accept: too many open files"))
	g.breakerFailure(g.shard("loner"), "proxy.failures")
	if rec := postRec(t, g, "loner", "x"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("loner behind an open breaker: status %d", rec.Code)
	}

	metric := func(family string, labelValues ...string) float64 {
		t.Helper()
		v := metricSum(t, g.reg, family, labelValues...)
		if v == 0 {
			t.Errorf("%s%v never moved: the churn does not cover it", family, labelValues)
		}
		return v
	}
	sh, cp := g.SharingStats(), g.ColdPathStats()
	canceled := 0.0
	for _, fn := range functions {
		canceled += metricSum(t, g.reg, "hotc_requests_total", fn, "canceled")
	}
	for _, c := range []struct {
		view string
		got  float64
		want float64
	}{
		{"SharingStats.LeasesGranted", float64(sh.LeasesGranted), metric("hotc_share_leases_total", "granted")},
		{"SharingStats.LeasesNoCandidate", float64(sh.LeasesNoCandidate), metric("hotc_share_leases_total", "no_candidate")},
		{"SharingStats.LeasesDenied", float64(sh.LeasesDenied), metric("hotc_share_leases_total", "denied_policy")},
		{"ColdPathStats.RefillBoots", float64(cp.RefillBoots), metric("hotc_coldpath_refills_total")},
		{"ColdPathStats.GenericReaped", float64(cp.GenericReaped), metric("hotc_coldpath_generic_reaped_total")},
		{"ColdPathStats.PullSkippedMB", cp.PullSkippedMB, metric("hotc_coldpath_pull_skipped_mb_total")},
		{"WarmMemory.Reclaimed", float64(g.WarmMemory().Reclaimed), metric("hotc_adm_mem_reclaimed_total")},
		{"TraceStats.SampledOut", float64(g.TraceStats().SampledOut), metric("hotc_trace_sampled_out_total")},
		{"Stats.Canceled", float64(g.Stats().Canceled), canceled},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, the registry says %v", c.view, c.got, c.want)
		}
	}
	res := g.ResilienceCounters()
	for _, k := range resilienceKinds {
		if got, want := res[k.key], int(metricSum(t, g.reg, "hotc_resilience_events_total", k.kind)); got != want {
			t.Errorf("resilience[%q] = %d, hotc_resilience_events_total{kind=%q} = %d", k.key, got, k.kind, want)
		}
	}
	for _, key := range []string{"proxy.failures", "breaker.trips", "breaker.rejected", "watchdog.serve_errors"} {
		if res[key] != 1 {
			t.Errorf("resilience[%q] = %d, want 1", key, res[key])
		}
	}
	if canceled != 1 {
		t.Errorf("%v requests counted canceled, want the one whose client hung up", canceled)
	}
}
