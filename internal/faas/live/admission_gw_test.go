package live

import (
	"context"
	"fmt"
	"io"
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
	"hotc/internal/predictor"
)

// blockingFn is a handler that parks on release after announcing
// itself on entered, letting tests hold instances busy for exactly as
// long as they need.
func blockingFn(name string, entered chan struct{}, release chan struct{}) Function {
	return Function{
		Name: name,
		Handler: func(b []byte) ([]byte, error) {
			entered <- struct{}{}
			<-release
			return b, nil
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
	// then free it: dispatch must shed, not serve.
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

// A deadline that expires mid-execution cancels the backend call: the
// client gets 504, the instance is torn down (its work was abandoned
// mid-flight), and the breaker is NOT fed — the backend did nothing
// wrong.
func TestDeadlineCancelsInFlightBackend(t *testing.T) {
	g := New(PoolConfig{BreakerThreshold: 1, BreakerOpenFor: time.Hour}) // hair trigger: one blamed failure opens it
	if err := g.Register(Function{
		Name: "slow",
		Handler: func(b []byte) ([]byte, error) {
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

	resp, err := postTenant(base, "slow", "", "x", map[string]string{DeadlineHeader: "50"})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-flight status = %d, want 504", resp.StatusCode)
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
}

// Regression for the proxy-context audit: a client that disconnects
// mid-request cancels the in-flight backend call. The gateway discards
// the instance (never re-pools abandoned work), feeds nothing to the
// breaker, and the admission slot is released.
func TestClientDisconnectCancelsBackend(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	g := New(PoolConfig{BreakerThreshold: 1, BreakerOpenFor: time.Hour, MaxInFlight: 4, QueueDepth: 4})
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

// The janitor's memory budget reclaims warm capacity from the largest
// holders first (water-filling): the function hoarding 4 instances is
// cut before the one holding 2 loses anything.
func TestMemoryBudgetReclaimsLargestHoldersFirst(t *testing.T) {
	g := New(PoolConfig{
		MemoryBudget:     4 << 20,
		InstanceMemBytes: 1 << 20, // budget = 4 instances
	})
	for _, spec := range []struct {
		name string
		warm int
	}{{"big", 4}, {"small", 2}} {
		if err := g.Register(echoFn(spec.name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	warmUp := func(name string, n int) {
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, _ := http.NewRequest(http.MethodPost, base+"/function/"+name, &gatedReader{gate: gate})
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		// All n requests are in flight (each pinning an instance)
		// before any completes, so n instances exist.
		time.Sleep(50 * time.Millisecond)
		close(gate)
		wg.Wait()
	}
	warmUp("big", 4)
	warmUp("small", 2)
	if b, s := g.WarmInstances("big"), g.WarmInstances("small"); b != 4 || s != 2 {
		t.Fatalf("warm = big:%d small:%d, want 4/2", b, s)
	}

	if n := g.reclaimMemoryOnce(); n != 2 {
		t.Fatalf("reclaimed %d instances, want 2 (6 warm, budget 4)", n)
	}
	if b, s := g.WarmInstances("big"), g.WarmInstances("small"); b != 2 || s != 2 {
		t.Fatalf("post-reclaim warm = big:%d small:%d, want 2/2 (largest holder pays)", b, s)
	}
	mem := g.WarmMemory()
	if mem.Reclaimed != 2 || mem.WarmBytes != 4<<20 || mem.BudgetBytes != 4<<20 {
		t.Fatalf("WarmMemory = %+v", mem)
	}
	// Under budget now: another pass is a no-op.
	if n := g.reclaimMemoryOnce(); n != 0 {
		t.Fatalf("under-budget reclaim evicted %d", n)
	}
}

// gatedReader blocks the request body until gate closes, then EOFs:
// the cheapest way to pin a request in flight without a busy handler.
type gatedReader struct{ gate chan struct{} }

func (r *gatedReader) Read(p []byte) (int, error) {
	<-r.gate
	return 0, io.EOF
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
		TenantWeights:    map[string]int{"gold": 2},
		MemoryBudget:     3 << 20,
		InstanceMemBytes: 1 << 20,
	})
	names := make([]string, 3)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		if err := g.Register(Function{
			Name:    names[i],
			Handler: func(b []byte) ([]byte, error) { return b, nil },
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
		g.janitorOnce(clk.Now()) // includes reclaimMemoryOnce
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

// A malformed deadline header is the client's error: 400, nothing
// admitted, nothing fed to the breaker.
func TestBadDeadlineHeaderRejected(t *testing.T) {
	g := NewGateway(true)
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	for _, bad := range []string{"soon", "-5", "1.5"} {
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
