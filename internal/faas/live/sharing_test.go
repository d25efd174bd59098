package live

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hotc/internal/sharing"
)

// testSharing is the deterministic test tuning: a measurable but tiny
// wipe, and no idle grace so a just-released instance is immediately
// lendable.
func testSharing() PoolConfig {
	return PoolConfig{Share: true, ShareWipe: time.Millisecond, ShareIdleGrace: -1}
}

// postRec drives one request through the gateway handler directly.
func postRec(t *testing.T, g *Gateway, name, body string) *httptest.ResponseRecorder {
	t.Helper()
	return postHeader(g, name, strings.NewReader(body), nil)
}

// The headline behaviour: a fresh function's very first request is
// served by renting another function's idle instance — X-Hotc-Boot:
// rented, X-Hotc-Reused: false — and beats the full cold start by
// roughly the pull+runtime share.
func TestFirstRequestRentsIdleInstance(t *testing.T) {
	g := New(testSharing())
	cold := 300 * time.Millisecond
	for _, n := range []string{"lender", "renter"} {
		if err := g.Register(echoFn(n, cold)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()

	if rec := postRec(t, g, "lender", "a"); rec.Header().Get(BootHeader) != "cold" {
		t.Fatalf("lender's first boot = %q, want cold", rec.Header().Get(BootHeader))
	}

	start := time.Now()
	rec := postRec(t, g, "renter", "b")
	elapsed := time.Since(start)
	if rec.Code != 200 || rec.Body.String() != "echo:b" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Hotc-Reused"); got != "false" {
		t.Fatalf("X-Hotc-Reused = %q, want false (a rented boot is not a warm reuse)", got)
	}
	if got := rec.Header().Get(BootHeader); got != "rented" {
		t.Fatalf("X-Hotc-Boot = %q, want rented", got)
	}
	// A rented boot pays wipe + app init (15% of 300ms = 45ms); the
	// pull and runtime shares (85%) are already in place.
	if elapsed >= cold/2 {
		t.Fatalf("rented boot took %v, want well under the %v cold start", elapsed, cold)
	}

	st := g.Stats()
	if st.RentedBoots != 1 {
		t.Fatalf("RentedBoots = %d, want 1", st.RentedBoots)
	}
	if st.ColdStarts != 2 {
		t.Fatalf("ColdStarts = %d, want 2 (a rented boot is still a cold start)", st.ColdStarts)
	}
	sh := g.SharingStats()
	if !sh.Enabled || sh.LeasesGranted != 1 {
		t.Fatalf("sharing stats = %+v, want enabled with 1 granted lease", sh)
	}

	// The renter's rented instance pooled normally: its next request
	// is a plain warm reuse.
	if rec := postRec(t, g, "renter", "c"); rec.Header().Get("X-Hotc-Reused") != "true" {
		t.Fatal("renter's second request should reuse its rented instance warm")
	}
}

// The lender's instance left its pool: the lender's own next request
// must not find it (it cold-starts again), and the abandoned
// lender-side struct is tainted so it can never be lent again.
func TestLeaseRemovesInstanceFromLender(t *testing.T) {
	g := New(testSharing())
	for _, n := range []string{"lender", "renter"} {
		if err := g.Register(echoFn(n, 20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()

	postRec(t, g, "lender", "a")
	ls := g.shard("lender")
	ls.mu.Lock()
	if len(ls.idle) != 1 {
		ls.mu.Unlock()
		t.Fatal("lender should have one idle instance")
	}
	lent := ls.idle[0]
	ls.mu.Unlock()

	if rec := postRec(t, g, "renter", "b"); rec.Header().Get(BootHeader) != "rented" {
		t.Fatalf("boot = %q, want rented", rec.Header().Get(BootHeader))
	}
	if !lent.tainted.Load() {
		t.Fatal("the lent instance struct must be tainted")
	}
	if g.WarmInstances("lender") != 0 {
		t.Fatal("lender's pool should be empty after the lease")
	}
	if rec := postRec(t, g, "lender", "c"); rec.Header().Get("X-Hotc-Reused") != "false" {
		t.Fatal("lender must not be handed its lent-out instance")
	}
}

// A tainted instance sitting in an idle list (defense in depth: the
// lease path never re-pools one) is skipped by the lender scan.
func TestTaintedIdleInstanceNeverLent(t *testing.T) {
	g := New(testSharing())
	for _, n := range []string{"lender", "renter"} {
		if err := g.Register(echoFn(n, 20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()

	postRec(t, g, "lender", "a")
	ls := g.shard("lender")
	ls.mu.Lock()
	ls.idle[0].tainted.Store(true)
	ls.mu.Unlock()

	before := g.SharingStats().LeasesNoCandidate
	if rec := postRec(t, g, "renter", "b"); rec.Header().Get(BootHeader) != "cold" {
		t.Fatalf("boot = %q, want cold (tainted instance must not be lent)", rec.Header().Get(BootHeader))
	}
	if got := g.SharingStats().LeasesNoCandidate; got != before+1 {
		t.Fatalf("LeasesNoCandidate went %d -> %d, want +1", before, got)
	}
}

// Per-deploy opt-out removes a function from both sides of sharing.
func TestNoShareOptOut(t *testing.T) {
	for _, side := range []string{"lender", "renter"} {
		t.Run(side+" opted out", func(t *testing.T) {
			g := New(testSharing())
			lf, rf := echoFn("lender", 20*time.Millisecond), echoFn("renter", 20*time.Millisecond)
			if side == "lender" {
				lf.NoShare = true
			} else {
				rf.NoShare = true
			}
			for _, fn := range []Function{lf, rf} {
				if err := g.Register(fn); err != nil {
					t.Fatal(err)
				}
			}
			defer g.Stop()

			postRec(t, g, "lender", "a")
			before := g.SharingStats().LeasesDenied
			if rec := postRec(t, g, "renter", "b"); rec.Header().Get(BootHeader) != "cold" {
				t.Fatalf("boot = %q, want cold (opt-out must block the lease)", rec.Header().Get(BootHeader))
			}
			if got := g.SharingStats().LeasesDenied; got != before+1 {
				t.Fatalf("LeasesDenied went %d -> %d, want +1", before, got)
			}
		})
	}
}

// The same-image default refuses cross-image leases; ModeAny bridges
// them. Memory classes gate both ways.
func TestSharingPolicyGates(t *testing.T) {
	boot := func(t *testing.T, cfg PoolConfig, lender, renter Function) string {
		t.Helper()
		g := New(cfg)
		for _, fn := range []Function{lender, renter} {
			if err := g.Register(fn); err != nil {
				t.Fatal(err)
			}
		}
		defer g.Stop()
		postRec(t, g, lender.Name, "a")
		return postRec(t, g, renter.Name, "b").Header().Get(BootHeader)
	}
	py := func(name string, mem int) Function {
		fn := echoFn(name, 20*time.Millisecond)
		fn.Image, fn.MemoryMB = "python:3.8", mem
		return fn
	}
	node := echoFn("renter", 20*time.Millisecond)
	node.Image = "node:10"

	anyMode := testSharing()
	anyMode.SharePolicy = "any"

	if got := boot(t, testSharing(), py("lender", 0), node); got != "cold" {
		t.Fatalf("cross-image under same-image policy: boot = %q, want cold", got)
	}
	if got := boot(t, anyMode, py("lender", 0), node); got != "rented" {
		t.Fatalf("cross-image under any policy: boot = %q, want rented", got)
	}
	if got := boot(t, testSharing(), py("lender", 512), py("renter", 1024)); got != "cold" {
		t.Fatalf("renter exceeding lender memory class: boot = %q, want cold", got)
	}
	if got := boot(t, testSharing(), py("lender", 512), py("renter", 256)); got != "rented" {
		t.Fatalf("renter inside lender memory class: boot = %q, want rented", got)
	}
}

// A neutral shard lends only surplus above its own forecast; a shard
// classified renter never lends at all.
func TestLenderReservesAndRenterNeverLends(t *testing.T) {
	g := New(testSharing())
	// One lender and a fresh probe function per step: a probe's own
	// cold boot would otherwise become a lendable instance (or a warm
	// hit) and contaminate the next step.
	for _, n := range []string{"lender", "p1", "p2", "p3"} {
		if err := g.Register(echoFn(n, 20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()
	// retire takes a probe's instance out of the candidate set after
	// its step, leaving only the lender shard to scan.
	retire := func(name string) {
		s := g.shard(name)
		s.mu.Lock()
		for _, inst := range s.idle {
			inst.tainted.Store(true)
		}
		s.mu.Unlock()
	}

	postRec(t, g, "lender", "a")
	ls := g.shard("lender")

	// Forecast says the lender needs its one idle instance: reserved.
	ls.mu.Lock()
	ls.ctl.Forecast = 1
	ls.mu.Unlock()
	if rec := postRec(t, g, "p1", "b"); rec.Header().Get(BootHeader) != "cold" {
		t.Fatalf("boot = %q, want cold (neutral lender reserves its forecast)", rec.Header().Get(BootHeader))
	}
	retire("p1")

	// Forecast drops to zero but the function is classified a renter:
	// still untouchable.
	ls.mu.Lock()
	ls.ctl.Forecast = 0
	for i := 0; i < 6; i++ {
		ls.ctl.share.Observe(0, 5, 0) // persistently under-forecasted
	}
	if ls.ctl.share.Role() != sharing.RoleRenter {
		ls.mu.Unlock()
		t.Fatal("setup: expected renter classification")
	}
	ls.mu.Unlock()
	if rec := postRec(t, g, "p2", "c"); rec.Header().Get(BootHeader) != "cold" {
		t.Fatalf("boot = %q, want cold (renter shards never lend)", rec.Header().Get(BootHeader))
	}
	retire("p2")

	// Back to a classified lender via direct classifier feed: the lease
	// now goes through even though forecast == idle, because lenders
	// reserve nothing.
	ls.mu.Lock()
	ls.ctl.share = *sharing.NewClassifier(sharing.ClassifierConfig{})
	for i := 0; i < 6; i++ {
		ls.ctl.share.Observe(5, 0, 1) // persistently over-forecasted
	}
	if ls.ctl.share.Role() != sharing.RoleLender {
		ls.mu.Unlock()
		t.Fatal("setup: expected lender classification")
	}
	ls.ctl.Forecast = 1
	ls.mu.Unlock()
	if rec := postRec(t, g, "p3", "d"); rec.Header().Get(BootHeader) != "rented" {
		t.Fatalf("boot = %q, want rented (classified lenders reserve nothing)", rec.Header().Get(BootHeader))
	}
}

// The idle grace keeps just-parked instances out of the lending pool.
func TestIdleGraceBlocksFreshInstances(t *testing.T) {
	cfg := testSharing()
	cfg.ShareIdleGrace = time.Hour
	g := New(cfg)
	for _, n := range []string{"lender", "renter"} {
		if err := g.Register(echoFn(n, 20*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()

	postRec(t, g, "lender", "a")
	if rec := postRec(t, g, "renter", "b"); rec.Header().Get(BootHeader) != "cold" {
		t.Fatalf("boot = %q, want cold (instance younger than the idle grace)", rec.Header().Get(BootHeader))
	}
}

// The control loop classifies from real forecast errors and surfaces
// roles in the prediction traces, the stats block and the population
// gauges.
func TestClassifierDrivenByControlLoop(t *testing.T) {
	pf, err := PredictorFactory("es")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSharing()
	cfg.ControlInterval, cfg.NewPredictor, cfg.MaxIdlePerFunction = time.Hour, pf, 1
	g := New(cfg)
	// The ES forecast decays toward zero alongside the vanished demand,
	// so the steady-state over-forecast error is modest; lower the lend
	// threshold so the classification flips within a few ticks.
	g.share.classifier = sharing.ClassifierConfig{LendThreshold: 0.4}
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	s := g.shard("f")
	tick := func(peak int) {
		s.mu.Lock()
		s.ctl.Peak = peak
		s.mu.Unlock()
		g.controlOnce("f", g.nowFn())
	}
	// Demand appears, the forecast learns it, then demand vanishes:
	// the forecast overshoots reality tick after tick — a lender.
	for i := 0; i < 3; i++ {
		tick(4)
	}
	for i := 0; i < 6; i++ {
		tick(0)
	}
	tr, ok := g.PredictionTraces()["f"]
	if !ok {
		t.Fatal("no prediction trace for f")
	}
	if tr.Role != "lender" {
		t.Fatalf("role = %q (forecast error %.2f), want lender", tr.Role, tr.ForecastError)
	}
	if tr.ForecastError <= 0 {
		t.Fatalf("forecast error = %.2f, want positive (over-forecasted)", tr.ForecastError)
	}
	sh := g.SharingStats()
	if sh.Lenders != 1 || sh.Roles["f"] != "lender" {
		t.Fatalf("sharing stats = %+v, want one lender", sh)
	}
}

// Concurrent renters and lenders churning across functions must stay
// race-free (run under -race) and account every request exactly once.
func TestSharingChurnRace(t *testing.T) {
	g := New(testSharing())
	const fns = 3
	for i := 0; i < fns; i++ {
		if err := g.Register(echoFn(fmt.Sprintf("f%d", i), 2*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("f%d", (w+i)%fns)
				rec := httptest.NewRecorder()
				g.handle(rec, httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x")))
				if rec.Code != 200 {
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := g.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Reused+st.ColdStarts != st.Requests {
		t.Fatalf("Reused(%d) + ColdStarts(%d) != Requests(%d)", st.Reused, st.ColdStarts, st.Requests)
	}
	if st.RentedBoots > st.ColdStarts {
		t.Fatalf("RentedBoots(%d) > ColdStarts(%d)", st.RentedBoots, st.ColdStarts)
	}
	sh := g.SharingStats()
	if int(sh.LeasesGranted) != st.RentedBoots {
		t.Fatalf("LeasesGranted(%d) != RentedBoots(%d)", sh.LeasesGranted, st.RentedBoots)
	}
	checkPool(t, g)
}
