package live

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/admission"
	"hotc/internal/obs"
	"hotc/internal/predictor"
)

// blockingFn is a handler that parks on release after announcing
// itself on entered, letting tests hold instances busy for exactly as
// long as they need — or until its request's context ends.
func blockingFn(name string, entered chan struct{}, release chan struct{}) Function {
	return Function{
		Name: name,
		Handler: func(ctx context.Context, b []byte) ([]byte, error) {
			entered <- struct{}{}
			select {
			case <-release:
				return b, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

// waitAdm polls the function's admission snapshot until cond accepts
// it.
func waitAdm(t *testing.T, g *Gateway, fn string, what string, cond func(admission.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := g.AdmissionStats()[fn]; ok && cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission state never reached %q: %+v", what, g.AdmissionStats()[fn])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postTenant(base, fn, tenant, body string, hdr map[string]string) (*http.Response, error) {
	req, _ := http.NewRequest(http.MethodPost, base+"/function/"+fn, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return http.DefaultClient.Do(req)
}

// A full tenant queue rejects that tenant with 429 + Retry-After +
// the refusal reason, while another tenant still queues: the bound is
// per tenant, so one aggressive client cannot consume the entire
// waiting room.
func TestAdmissionQueueFullIsPerTenant(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	g := New(PoolConfig{MaxInFlight: 1, QueueDepth: 1})
	if err := g.Register(blockingFn("f", entered, release)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	defer releaseAll()

	var wg sync.WaitGroup
	codes := make([]int32, 4) // [0] in-flight, [1] queued a, [2] rejected a, [3] queued b
	fire := func(slot int, tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postTenant(base, "f", tenant, "x", nil)
			if err != nil {
				atomic.StoreInt32(&codes[slot], -1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			atomic.StoreInt32(&codes[slot], int32(resp.StatusCode))
		}()
	}

	fire(0, "a")
	<-entered // instance busy, capacity full
	fire(1, "a")
	waitAdm(t, g, "f", "one queued", func(st admission.Stats) bool { return st.Queued == 1 })

	// Tenant a's queue (depth 1) is full: immediate 429 with the
	// reason and an actionable Retry-After.
	resp, err := postTenant(base, "f", "a", "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(RejectedHeader); got != string(admission.ReasonQueueFull) {
		t.Fatalf("%s = %q, want %q", RejectedHeader, got, admission.ReasonQueueFull)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
	}

	// Tenant b queues untouched by a's overflow.
	fire(3, "b")
	waitAdm(t, g, "f", "two queued", func(st admission.Stats) bool { return st.Queued == 2 })

	releaseAll()
	wg.Wait()
	for _, slot := range []int{0, 1, 3} {
		if got := atomic.LoadInt32(&codes[slot]); got != http.StatusOK {
			t.Fatalf("request %d finished %d, want 200", slot, got)
		}
	}

	st := g.AdmissionStats()["f"]
	if st.Admitted != 3 || st.Rejected[admission.ReasonQueueFull] != 1 {
		t.Fatalf("admission stats = %+v, want 3 admitted / 1 queue_full", st)
	}
	if st.Tenants["a"].Admitted != 2 || st.Tenants["b"].Admitted != 1 {
		t.Fatalf("tenant split = %+v, want a:2 b:1", st.Tenants)
	}
}

// A queued request whose deadline passes while it waits is shed at
// dispatch with 429/deadline instead of being served late: work the
// client has given up on is the cheapest work to drop.
func TestAdmissionShedsExpiredQueuedRequest(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	g := New(PoolConfig{MaxInFlight: 1, QueueDepth: 4})
	if err := g.Register(blockingFn("f", entered, release)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := postTenant(base, "f", "", "x", nil)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered

	var queued *http.Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		queued, _ = postTenant(base, "f", "", "x", map[string]string{DeadlineHeader: "50"})
	}()
	waitAdm(t, g, "f", "one queued", func(st admission.Stats) bool { return st.Queued == 1 })

	// Hold the slot until well past the queued request's deadline,
	// then free it: the queued request must be shed, not served.
	time.Sleep(120 * time.Millisecond)
	close(release)
	wg.Wait()

	if queued == nil {
		t.Fatal("queued request returned no response")
	}
	defer queued.Body.Close()
	io.Copy(io.Discard, queued.Body)
	if queued.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expired-in-queue status = %d, want 429", queued.StatusCode)
	}
	if got := queued.Header.Get(RejectedHeader); got != string(admission.ReasonDeadline) {
		t.Fatalf("%s = %q, want %q", RejectedHeader, got, admission.ReasonDeadline)
	}
	if st := g.AdmissionStats()["f"]; st.Rejected[admission.ReasonDeadline] != 1 {
		t.Fatalf("admission stats = %+v, want 1 deadline shed", st)
	}
}

// A queued request is answered at its own deadline, not when the slot
// it waits for frees: the deadline wakes the waiter, which is shed 429
// deadline while the holder still runs.
func TestQueuedRequestAnsweredAtItsDeadline(t *testing.T) {
	g := New(PoolConfig{MaxInFlight: 1, QueueDepth: 4})
	if err := g.Register(Function{
		Name: "sleep",
		Handler: func(_ context.Context, b []byte) ([]byte, error) {
			time.Sleep(500 * time.Millisecond)
			return b, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, err := postTenant(base, "sleep", "", "x", nil); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer wg.Wait()
	waitAdm(t, g, "sleep", "the holder in flight", func(st admission.Stats) bool { return st.InFlight == 1 })

	start := time.Now()
	resp, err := postTenant(base, "sleep", "", "x", map[string]string{DeadlineHeader: "50"})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Fatalf("a queued request with a 50 ms deadline was answered after %v", took)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(RejectedHeader) != string(admission.ReasonDeadline) {
		t.Fatalf("status = %d %s = %q, want 429 %q", resp.StatusCode, RejectedHeader, resp.Header.Get(RejectedHeader), admission.ReasonDeadline)
	}
	if st := g.AdmissionStats()["sleep"]; st.Rejected[admission.ReasonDeadline] != 1 || st.Rejected[admission.ReasonCanceled] != 0 {
		t.Fatalf("admission stats = %+v, want one deadline shed", st)
	}
}

// A deadline that expires mid-execution cancels the backend call: the
// client gets 504, the instance is torn down (its work was abandoned
// mid-flight), and the breaker is NOT fed — the backend did nothing
// wrong. In process the function waits on its request's context, so
// the 504 comes at the deadline, not at the function's 500 ms.
func TestDeadlineCancelsInFlightBackend(t *testing.T) {
	onBackends(t, func(t *testing.T, backend string) {
		g := New(PoolConfig{Backend: backend, BreakerThreshold: 1, BreakerOpenFor: time.Hour}) // hair trigger: one blamed failure opens it
		if err := g.Register(Function{
			Name: "slow",
			Handler: func(ctx context.Context, b []byte) ([]byte, error) {
				select {
				case <-time.After(500 * time.Millisecond):
					return b, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		base, err := g.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer g.Stop()

		start := time.Now()
		resp, err := postTenant(base, "slow", "", "x", map[string]string{DeadlineHeader: "50"})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("expired-in-flight status = %d, want 504", resp.StatusCode)
		}
		if took := time.Since(start); took >= 400*time.Millisecond {
			t.Fatalf("the 504 took %v: it was not answered at the 50 ms deadline", took)
		}
		if got := resp.Header.Get(RejectedHeader); got != string(admission.ReasonDeadline) {
			t.Fatalf("%s = %q, want %q", RejectedHeader, got, admission.ReasonDeadline)
		}
		if warm := g.WarmInstances("slow"); warm != 0 {
			t.Fatalf("abandoned instance re-pooled: warm = %d, want 0", warm)
		}

		// The breaker must still be closed: a deadline is the client's
		// choice, not a backend fault. A healthy follow-up proves it.
		body, _ := post(t, base+"/function/slow", "y")
		if body != "y" {
			t.Fatalf("post-cancel invoke = %q", body)
		}
		if res := g.ResilienceCounters(); res["proxy.failures"] != 0 || res["breaker.trips"] != 0 {
			t.Fatalf("client deadline fed the breaker: %v", res)
		}
	})
}

// Regression for the proxy-context audit: a client that disconnects
// mid-request cancels the in-flight backend call. The gateway discards
// the instance (never re-pools abandoned work), feeds nothing to the
// breaker, and the admission slot is released.
func TestClientDisconnectCancelsBackend(t *testing.T) {
	onBackends(t, clientDisconnect)
}

// clientDisconnect is TestClientDisconnectCancelsBackend on backend. In
// process the function returns as its request's context ends, which the
// front door ends when it sees the hang-up.
func clientDisconnect(t *testing.T, backend string) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var once sync.Once
	let := func() { once.Do(func() { close(release) }) }
	defer let()
	g := New(PoolConfig{Backend: backend, BreakerThreshold: 1, BreakerOpenFor: time.Hour, MaxInFlight: 4, QueueDepth: 4})
	if err := g.Register(blockingFn("f", entered, release)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/function/f", strings.NewReader("x"))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // the backend is executing
	cancel()  // ...and the client walks away

	if err := <-errc; err == nil {
		t.Fatal("canceled request reported success")
	}
	// The handler must conclude: admission slot freed, instance
	// discarded rather than re-pooled.
	waitAdm(t, g, "f", "drained", func(st admission.Stats) bool { return st.InFlight == 0 })
	deadline := time.Now().Add(5 * time.Second)
	for g.WarmInstances("f") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned instance re-pooled: warm = %d, want 0", g.WarmInstances("f"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res := g.ResilienceCounters(); res["proxy.failures"] != 0 || res["breaker.trips"] != 0 {
		t.Fatalf("client disconnect fed the breaker: %v", res)
	}
	if st := g.Stats(); st.Canceled != 1 {
		t.Fatalf("stats = %+v, want Canceled = 1", st)
	}
}

// Stop wakes queued waiters with 503/stopped instead of stranding
// their handler goroutines; afterwards the goroutine count returns to
// its pre-gateway baseline (the HOTC_LEAKCHECK TestMain pass re-checks
// this package-wide).
func TestStopDrainsQueuedAdmissionWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	g := New(PoolConfig{MaxInFlight: 1, QueueDepth: 8})
	if err := g.Register(blockingFn("f", entered, release)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var stopped503 atomic.Int32
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postTenant(base, "f", "", "x", nil)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusServiceUnavailable &&
				resp.Header.Get(RejectedHeader) == string(admission.ReasonStopped) {
				stopped503.Add(1)
			}
			resp.Body.Close()
		}()
	}
	<-entered
	waitAdm(t, g, "f", "four queued", func(st admission.Stats) bool { return st.Queued == 4 })

	// Free the executing handler shortly after Stop begins so the
	// server's drain isn't pinned for the full grace period.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	g.Stop()
	wg.Wait()

	if got := stopped503.Load(); got != 4 {
		t.Fatalf("queued waiters resolved to %d stopped-503s, want 4", got)
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	const slack = 4
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d (+%d slack): queued waiters leaked through Stop",
				runtime.NumGoroutine(), before, slack)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Admission, adaptive control, the janitor's memory reclaim and stat
// snapshots all churn concurrently under -race: four workers hammer
// three functions through the full handler (tenants, deadlines,
// cancellations) while controlOnce/janitorOnce run between them. The
// assertions are occupancy book-balance; the race detector does the
// rest.
func TestAdmissionChurnWithControlLoops(t *testing.T) {
	g, clk, base := startControlled(t, PoolConfig{
		NewPredictor: func() predictor.Predictor { return predictor.Default() }, IdleTTL: time.Minute, MaxIdlePerFunction: 4,
		MaxInFlight: 2, QueueDepth: 4,
		MemoryBudget: 3 * instanceMemBytes,
	})
	names := make([]string, 3)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		if err := g.Register(Function{
			Name:    names[i],
			Handler: func(_ context.Context, b []byte) ([]byte, error) { return b, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = base

	stop := make(chan struct{})
	var wg sync.WaitGroup
	tenants := []string{"gold", "bronze", ""}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("POST", "/function/"+names[(w+i)%len(names)], strings.NewReader("x"))
				if tn := tenants[i%len(tenants)]; tn != "" {
					req.Header.Set(TenantHeader, tn)
				}
				if i%5 == 0 {
					req.Header.Set(DeadlineHeader, "40")
				}
				g.handle(httptest.NewRecorder(), req)
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, name := range names {
			g.controlOnce(name, clk.Advance(time.Millisecond))
		}
		g.janitorOnce(clk.Now()) // expiry and the budget, one pass
		g.AdmissionStats()
		g.WarmMemory()
		g.Stats()
	}
	close(stop)
	wg.Wait()

	for name, st := range g.AdmissionStats() {
		if st.InFlight != 0 || st.Queued != 0 {
			t.Errorf("%s: occupancy after drain = %d in flight / %d queued, want 0/0", name, st.InFlight, st.Queued)
		}
		if st.Admitted == 0 {
			t.Errorf("%s: nothing admitted during churn", name)
		}
	}
	checkPool(t, g)
}

// A malformed or out-of-range deadline header is the client's error:
// 400, nothing admitted, nothing fed to the breaker.
func TestBadDeadlineHeaderRejected(t *testing.T) {
	g := New(PoolConfig{})
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	for _, bad := range []string{"soon", "-5", "1.5", "9223372036855", "18446744073710"} {
		resp, err := postTenant(base, "f", "", "x", map[string]string{DeadlineHeader: bad})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// X-Hotc-Deadline-Ms is refused exactly when it is not a base-10
// integer in [0, the largest millisecond count a time.Duration holds];
// accepted, 0 means no deadline and any other value lands exactly that
// many milliseconds after arrival. An empty value is no header at all:
// the default, none here, applies. The seed corpus runs with the suite.
func FuzzDeadlineHeader(f *testing.F) {
	for _, seed := range []string{"", "-1", "1e3", "0", "1000", "9223372036854", "9223372036855", "18446744073710"} {
		f.Add(seed)
	}
	g := New(PoolConfig{})
	f.Cleanup(g.Stop)
	start := time.Unix(1_700_000_000, 0)
	f.Fuzz(func(t *testing.T, h string) {
		r := httptest.NewRequest(http.MethodPost, "/function/f", nil)
		r.Header.Set(DeadlineHeader, h)
		got, err := g.requestDeadline(r, start)
		ms, perr := strconv.ParseInt(h, 10, 64)
		switch {
		case h == "" || (perr == nil && ms == 0):
			if err != nil || !got.IsZero() {
				t.Fatalf("%q: deadline %v, err %v; want none", h, got, err)
			}
		case perr != nil || ms < 0 || ms > math.MaxInt64/int64(time.Millisecond):
			if err == nil {
				t.Fatalf("%q accepted as a deadline at %v", h, got)
			}
		case err != nil:
			t.Fatalf("%q refused: %v", h, err)
		case got.UnixMilli()-start.UnixMilli() != ms || got.Nanosecond()%1e6 != 0:
			t.Fatalf("%q: deadline %v is not %d ms after %v", h, got, ms, start)
		}
	})
}

// X-Hotc-Tenant is any string a client sends: empty, 64 KiB long, full
// of control bytes, or one of more names than a queue tracks. Whatever
// it is, g.handle answers 200 or a refusal the books counted, the
// queue tracks at most admission.MaxTenants names and the overflow
// tenant, the goodput family has no more series than that, and the
// exposition that labels them with the name still parses. spread
// adds that many further distinct names, so a seed can pass the bound.
// The gateway persists across inputs, as the queue does on a daemon.
// The seed corpus runs with the suite.
func FuzzTenantHeader(f *testing.F) {
	f.Add("", uint16(0))
	f.Add("acme", uint16(0))
	f.Add(strings.Repeat("t", 64<<10), uint16(0))
	f.Add("\x00\x01\t\r\n\x7f\xff", uint16(0))
	f.Add("~overflow", uint16(0))
	f.Add("scan", uint16(admission.MaxTenants+16))
	g := New(PoolConfig{MaxInFlight: 4, QueueDepth: 4})
	f.Cleanup(g.Stop)
	if err := g.Register(echoFn("f", 0)); err != nil {
		f.Fatal(err)
	}
	const bound = admission.MaxTenants + 1 // and the overflow tenant
	f.Fuzz(func(t *testing.T, tenant string, spread uint16) {
		for i := 0; i <= int(spread)%(2*admission.MaxTenants); i++ {
			name := tenant
			if i > 0 {
				name += "-" + strconv.Itoa(i)
			}
			refused := metricSum(t, g.reg, "hotc_requests_total", "f", "rejected")
			rec := postHeader(g, "f", strings.NewReader("x"), map[string]string{TenantHeader: name})
			switch {
			case rec.Code == http.StatusOK:
				if rec.Body.String() != "echo:x" {
					t.Fatalf("tenant %q: body %q", name, rec.Body)
				}
			case metricSum(t, g.reg, "hotc_requests_total", "f", "rejected") != refused+1:
				t.Fatalf("tenant %q: status %d, neither served nor a counted refusal", name, rec.Code)
			}
		}
		if n := len(g.AdmissionStats()["f"].Tenants); n > bound {
			t.Fatalf("the queue tracks %d tenants, want at most %d", n, bound)
		}
		if n := seriesCount(t, g.reg, "hotc_adm_goodput_total"); n > bound {
			t.Fatalf("hotc_adm_goodput_total has %d series, want at most %d", n, bound)
		}
		var expo strings.Builder
		if err := g.reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseExposition(strings.NewReader(expo.String())); err != nil {
			t.Fatalf("tenant %q: the exposition does not parse: %v", tenant, err)
		}
	})
}
