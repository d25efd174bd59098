package live

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/faas"
	"hotc/internal/obs"
	"hotc/internal/stack"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// One gateway driven through every kind of event its books count — warm
// hits, a full cold, a generic and a rented boot, a failing boot, a
// request canceled mid-boot, prewarms, a cap eviction, a scale-down, a
// redeploy, a budget reclaim and a keep-alive expiry — balances DESIGN
// §8's "Books" identities at quiescence, and /system/stats
// reports exactly what Stats reads — on either backend.
func TestLiveBooksBalance(t *testing.T) {
	onBackends(t, liveBooksBalance)
}

func liveBooksBalance(t *testing.T, backend string) {
	cfg := testSharing()
	cfg.Backend = backend
	cfg.Prefork, cfg.PreforkSize = true, 1
	cfg.NewPredictor = naiveFactory
	cfg.IdleTTL, cfg.MaxIdlePerFunction = time.Minute, 2
	cfg.MemoryBudget = 2 * instanceMemBytes
	g := New(cfg) // never started: every stage below is driven by hand
	defer g.Stop()
	clk := newFakeClock()
	g.clock = clk
	refuse := refuseBoots(g)
	// failBoot fails the next boot until restored: a socket one at its
	// dial, its last step; one in process in its first phase.
	failBoot := func() (restore func()) {
		if backend == BackendInProcess {
			refuse.armed.Store(true)
			return func() {}
		}
		dial := g.dial
		g.dial = func(context.Context, string) (net.Conn, error) { return nil, errors.New("dial refused") }
		return func() { g.dial = dial }
	}
	for _, name := range []string{"a", "b", "c", "n"} {
		fn := echoFn(name, 0)
		fn.NoShare = name == "c" || name == "n" // never rent, so they boot below the lease
		if err := g.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(name, boot string, status int) {
		t.Helper()
		rec := postRec(t, g, name, "x")
		if rec.Code != status || rec.Header().Get(BootHeader) != boot {
			t.Fatalf("%s: status %d boot %q, want %d %q", name, rec.Code, rec.Header().Get(BootHeader), status, boot)
		}
	}

	serve("a", "cold", http.StatusOK) // no lender, no generic yet
	serve("a", "", http.StatusOK)     // a warm hit
	waitIdleGenerics(t, g, 1)
	restore := failBoot()
	serve("n", "", http.StatusBadGateway) // a failing (generic) boot
	restore()
	waitIdleGenerics(t, g, 1)
	serve("n", "generic", http.StatusOK)
	serve("b", "rented", http.StatusOK) // leases a's instance
	serve("b", "", http.StatusOK)
	gone, hangUp := context.WithCancel(context.Background())
	hangUp()
	g.handle(httptest.NewRecorder(), httptest.NewRequest("POST", "/function/c", strings.NewReader("x")).WithContext(gone))

	a := g.shard("a")
	a.mu.Lock()
	a.ctl.Peak = 2
	a.mu.Unlock()
	g.controlOnce("a", clk.Now()) // prewarms a back to two
	settle(t, g)

	n := g.shard("n")
	held := make([]*instance, 3) // one warm, two booted: the third release evicts at the cap
	for i := range held {
		inst, _, err := g.acquire(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = inst
	}
	for _, inst := range held {
		g.release(n, inst, true)
	}
	g.controlOnce("a", clk.Now()) // demand gone: scale a down
	// A redeploy drains b's instance.
	if err := g.Register(echoFn("b", 0)); err != nil {
		t.Fatal(err)
	}
	waitIdleGenerics(t, g, 1)
	if got := g.reclaimMemoryOnce(); got < 2 { // the generic, then a warm instance
		t.Fatalf("reclaimed %d over a two-instance budget, want the generic and a warm instance", got)
	}
	g.janitorOnce(clk.Advance(2 * time.Minute)) // expires the rest
	checkPool(t, g)

	metric := func(family string, labelValues ...string) float64 {
		t.Helper()
		v := metricSum(t, g.reg, family, labelValues...)
		if v == 0 {
			t.Errorf("%s%v never moved: the drive does not cover it", family, labelValues)
		}
		return v
	}
	hits, misses := metric("hotc_pool_hits_total", "exact"), metric("hotc_pool_misses_total")
	boots := 0.0
	for _, mode := range []string{"rented", "generic", "cold"} {
		boots += metric("hotc_coldpath_boots_total", mode)
	}
	bootFailures := metric("hotc_resilience_events_total", "boot.failures")
	midBoot := metric("hotc_adm_canceled_total") // the one cancel landed mid-boot
	retired := 0.0
	for _, reason := range []string{"scale_down", "cap", "budget", "redeploy", "expired"} {
		retired += metric("hotc_pool_retired_total", reason)
	}
	canceled, queueCanceled := 0.0, 0.0
	for _, s := range g.snapshotShards() {
		canceled += metricSum(t, g.reg, "hotc_requests_total", s.name, "canceled")
		queueCanceled += metricSum(t, g.reg, "hotc_adm_rejected_total", s.name, "canceled")
	}

	st, sh := g.Stats(), g.SharingStats()
	for _, c := range []struct {
		identity  string
		got, want float64
	}{
		{"hits + misses = Requests", hits + misses, float64(st.Requests)},
		{"hits = Reused", hits, float64(st.Reused)},
		{"misses = ColdStarts", misses, float64(st.ColdStarts)},
		{"misses = Σ boots_total{mode} + failed acquires", misses, boots + bootFailures + midBoot},
		{"boots_total{rented} = leases{granted}", metric("hotc_coldpath_boots_total", "rented"), metric("hotc_share_leases_total", "granted")},
		{"boots_total{rented} = RentedBoots", metric("hotc_coldpath_boots_total", "rented"), float64(st.RentedBoots)},
		{"boots_total{rented} = SharingStats.RentedBoots", metric("hotc_coldpath_boots_total", "rented"), float64(sh.RentedBoots)},
		{"boots_total{generic} = GenericHandoffs", metric("hotc_coldpath_boots_total", "generic"), float64(st.GenericHandoffs)},
		{"prewarmed = Prewarmed", metric("hotc_pool_prewarmed_total"), float64(st.Prewarmed)},
		{"Σ retired{reason} = Retired + Expired", retired, float64(st.Retired + st.Expired)},
		{"retired{expired} = Expired", metric("hotc_pool_retired_total", "expired"), float64(st.Expired)},
		{"mem_reclaimed = generic_reaped + retired{budget}", metric("hotc_adm_mem_reclaimed_total"),
			metric("hotc_coldpath_generic_reaped_total") + metric("hotc_pool_retired_total", "budget")},
		{"Σ requests{canceled} = adm_canceled + adm_rejected{canceled}", canceled, metric("hotc_adm_canceled_total") + queueCanceled},
		{"Σ requests{canceled} = Canceled", canceled, float64(st.Canceled)},
	} {
		if c.got != c.want {
			t.Errorf("%s: %v != %v", c.identity, c.got, c.want)
		}
	}

	rec := httptest.NewRecorder()
	g.routes().ServeHTTP(rec, httptest.NewRequest("GET", "/system/stats", nil))
	var sys struct {
		Stats   Stats        `json:"stats"`
		Sharing SharingStats `json:"sharing"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&sys); err != nil {
		t.Fatal(err)
	}
	if sys.Stats != st || sys.Sharing.RentedBoots != st.RentedBoots {
		t.Errorf("/system/stats = %+v (rentedBoots %d), Stats() = %+v", sys.Stats, sys.Sharing.RentedBoots, st)
	}
}

// The counts are read from the registry, so a shard held locked — a long
// pool operation, a stuck lender scan — delays neither Stats nor
// SharingStats.
func TestStatsTakesNoShardLock(t *testing.T) {
	g := New(testSharing())
	defer g.Stop()
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	postRec(t, g, "f", "x")
	s := g.shard("f")
	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Stats()
		g.SharingStats()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("Stats or SharingStats waited on a shard lock")
	}
	s.mu.Unlock()
	<-done
}

// The families both substrates count into are declared once, in the
// kernel, so one registry hosts a simulated stack and a live gateway
// side by side: each family appears once, under the one HELP string a
// gateway on a registry of its own shows, with both substrates' series.
func TestOneRegistryHostsBothSubstrates(t *testing.T) {
	shared := []string{
		"hotc_requests_total", "hotc_request_latency_ms", "hotc_starts_total",
		"hotc_resilience_events_total", "hotc_breaker_state", "hotc_pool_hits_total",
		"hotc_pool_misses_total", "hotc_pool_prewarmed_total", "hotc_pool_retired_total",
	}
	reg := obs.New()
	st, err := stack.New(stack.Options{PrePull: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sim := faas.Function{Name: "sim", Runtime: config.Runtime{Image: "python:3.8"}, App: workload.QRApp(workload.Python)}
	if err := st.Deploy(sim); err != nil {
		t.Fatal(err)
	}
	if _, err := faas.Run(st.Gateway, make([]trace.Request, 1), func(int) string { return "sim" }); err != nil {
		t.Fatal(err)
	}

	g := New(PoolConfig{})
	g.reg, g.obs = reg, newInstruments(reg)
	if err := g.Register(echoFn("live", 0)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if body, _ := post(t, base+"/function/live", "x"); body != "echo:x" {
		t.Fatalf("live body = %q", body)
	}

	alone := New(PoolConfig{})
	defer alone.Stop()
	own := map[string]obs.FamilySnapshot{}
	for _, f := range alone.reg.Snapshot() {
		own[f.Name] = f
	}
	seen := map[string]int{}
	for _, f := range reg.Snapshot() {
		seen[f.Name]++
		if _, ok := own[f.Name]; ok && f.Help != own[f.Name].Help {
			t.Errorf("%s: HELP %q on the shared registry, %q on the gateway's own", f.Name, f.Help, own[f.Name].Help)
		}
		if f.Name == "hotc_requests_total" {
			fns := map[string]bool{}
			for _, s := range f.Series {
				fns[s.LabelValues[0]] = true
			}
			if !fns["sim"] || !fns["live"] {
				t.Errorf("hotc_requests_total has series for %v, want both sim and live", fns)
			}
		}
	}
	for _, name := range shared {
		if seen[name] != 1 {
			t.Errorf("%s appears %d times in the shared registry, want once", name, seen[name])
		}
	}
}

// The same requests for a function nobody deployed, sent to a
// simulation and to a live gateway, are booked alike: each substrate
// counts every one under hotc_requests_total{function="",outcome="error"},
// the one series for all unknown names, and the simulator's
// requests.failed, which sums the error outcomes, counts them too.
func TestUnknownFunctionBookedAlikeOnBothSubstrates(t *testing.T) {
	const n = 3
	st, err := stack.New(stack.Options{PrePull: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	results, err := faas.Run(st.Gateway, make([]trace.Request, n), func(int) string { return "nope" })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatal("the simulation served an undeployed function")
		}
	}
	g := New(PoolConfig{})
	defer g.Stop()
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := http.Post(base+"/function/nope", "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("live answered %d, want 404", resp.StatusCode)
		}
	}
	for _, sub := range []struct {
		name string
		reg  *obs.Registry
	}{{"simulation", st.Metrics}, {"live", g.reg}} {
		if got := metricSum(t, sub.reg, "hotc_requests_total", "", "error"); got != n {
			t.Errorf("%s: hotc_requests_total{function=\"\",outcome=\"error\"} = %v, want %d", sub.name, got, n)
		}
	}
	if got := st.Gateway.ResilienceCounters()[faas.CounterRequestsFailed]; got != n {
		t.Errorf("simulation requests.failed = %d, want %d", got, n)
	}
}
