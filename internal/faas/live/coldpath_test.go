package live

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitIdleGenerics blocks until the generic pool holds exactly want
// idle watchdogs (refills run on background goroutines).
func waitIdleGenerics(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.cold.pool.Idle() != want {
		if time.Now().After(deadline) {
			t.Fatalf("generic idle = %d, want %d", g.cold.pool.Idle(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The default phase split decomposes ColdStart without changing the
// total: pull+runtime+app must equal ColdStart exactly, for any value,
// so an unconfigured gateway boots in the same time it always did.
func TestPhaseSplitSumsToColdStart(t *testing.T) {
	g := NewGateway(true)
	defer g.Stop()
	for _, cs := range []time.Duration{0, time.Millisecond, 7 * time.Millisecond, 200 * time.Millisecond, 333 * time.Millisecond} {
		ph := g.phasesFor(echoFn("f", cs))
		if got := ph.pull + ph.runtime + ph.app; got != cs {
			t.Errorf("ColdStart %v: phases sum to %v (pull=%v runtime=%v app=%v)", cs, got, ph.pull, ph.runtime, ph.app)
		}
		if cs > 0 && !(ph.pull > ph.runtime && ph.runtime > ph.app) {
			t.Errorf("ColdStart %v: want pull > runtime > app, got %v/%v/%v", cs, ph.pull, ph.runtime, ph.app)
		}
	}
}

// Explicit per-phase durations override the fractional split entirely.
func TestPhaseSplitExplicitPhasesWin(t *testing.T) {
	g := NewGateway(true)
	defer g.Stop()
	fn := echoFn("f", 999*time.Millisecond)
	fn.Pull, fn.RuntimeInit, fn.AppInit = 30*time.Millisecond, 20*time.Millisecond, 10*time.Millisecond
	ph := g.phasesFor(fn)
	if ph.pull != fn.Pull || ph.runtime != fn.RuntimeInit || ph.app != fn.AppInit {
		t.Fatalf("phases = %v/%v/%v, want explicit 30ms/20ms/10ms", ph.pull, ph.runtime, ph.app)
	}
}

// A generic handoff must beat the full cold start by roughly the
// pre-paid share: with the default split only app init (15%) remains,
// so a 300ms function specializes in well under half its ColdStart.
// The response carries X-Hotc-Reused: false (it IS a cold start from
// the client's perspective) plus X-Hotc-Boot: generic.
func TestGenericHandoffFasterThanFullCold(t *testing.T) {
	g := New(PoolConfig{Prefork: true, PreforkSize: 1})
	if err := g.Register(echoFn("f", 300*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.refillPrefork()
	waitIdleGenerics(t, g, 1)

	start := time.Now()
	rec := httptest.NewRecorder()
	g.handle(rec, httptest.NewRequest("POST", "/function/f", strings.NewReader("hi")))
	elapsed := time.Since(start)
	if rec.Code != 200 || rec.Body.String() != "echo:hi" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Hotc-Reused"); got != "false" {
		t.Fatalf("X-Hotc-Reused = %q, want false", got)
	}
	if got := rec.Header().Get(BootHeader); got != "generic" {
		t.Fatalf("%s = %q, want generic", BootHeader, got)
	}
	// App init is 45ms of the 300ms ColdStart; anything under 150ms
	// proves the pull+runtime shares were not paid on this request.
	if elapsed >= 150*time.Millisecond {
		t.Fatalf("generic handoff took %v, want well under the 300ms full cold", elapsed)
	}
	if st := g.Stats(); st.GenericHandoffs != 1 || st.ColdStarts != 1 {
		t.Fatalf("stats = %+v, want 1 generic handoff counted as the cold start", st)
	}

	// The warm reuse that follows carries no boot header at all.
	rec = httptest.NewRecorder()
	g.handle(rec, httptest.NewRequest("POST", "/function/f", strings.NewReader("x")))
	if got := rec.Header().Get("X-Hotc-Reused"); got != "true" {
		t.Fatalf("second request X-Hotc-Reused = %q, want true", got)
	}
	if got := rec.Header().Get(BootHeader); got != "" {
		t.Fatalf("warm response carries %s = %q, want unset", BootHeader, got)
	}
}

// When the pool is empty the request pays the full cold boot — but it
// must never wait for the refill: generic boots happen on background
// goroutines only. A 40ms function in front of a 250ms generic boot
// must answer long before 250ms, and the pool still fills afterwards.
func TestEmptyPoolFullColdNeverWaitsForRefill(t *testing.T) {
	g := New(PoolConfig{Prefork: true, PreforkSize: 1, PreforkBoot: 250 * time.Millisecond})
	if err := g.Register(echoFn("f", 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	start := time.Now()
	rec := httptest.NewRecorder()
	g.handle(rec, httptest.NewRequest("POST", "/function/f", strings.NewReader("x")))
	elapsed := time.Since(start)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(BootHeader); got != "cold" {
		t.Fatalf("%s = %q, want cold", BootHeader, got)
	}
	if elapsed >= 200*time.Millisecond {
		t.Fatalf("full cold with empty pool took %v: the 250ms generic refill leaked onto the request path", elapsed)
	}
	// The miss still triggered a refill, off the request path.
	waitIdleGenerics(t, g, 1)
	if st := g.ColdPathStats(); st.RefillBoots < 1 {
		t.Fatalf("ColdPathStats = %+v, want at least one refill boot", st)
	}
}

// Functions sharing image layers skip the cached share of the pull
// phase. python:3.8 and node:10 share the 101MB debian base; a second
// python boot skips everything.
func TestLayerCacheScalesPullPhase(t *testing.T) {
	g := NewGateway(true) // standard catalog and an unbounded layer cache are the defaults
	defer g.Stop()

	pyFn := echoFn("py", 0)
	pyFn.Image = "python:3.8"
	pyFn.Pull, pyFn.AppInit = 100*time.Millisecond, time.Millisecond

	inst, info, err := g.bootInstance(context.Background(), pyFn)
	if err != nil {
		t.Fatal(err)
	}
	inst.stop()
	if info.mode != bootCold || info.skippedMB != 0 || info.pull != 100*time.Millisecond {
		t.Fatalf("first python boot = %+v, want full 100ms pull, nothing skipped", info)
	}

	// Second boot of the same image: every layer is cached.
	py2 := pyFn
	py2.Name = "py2"
	inst, info, err = g.bootInstance(context.Background(), py2)
	if err != nil {
		t.Fatal(err)
	}
	inst.stop()
	pySize := 101.0 + 48 + 9
	if info.pull != 0 || info.skippedMB != pySize {
		t.Fatalf("cached python boot = %+v, want zero pull and %.0fMB skipped", info, pySize)
	}

	// node:10 shares only the debian base: it pays pull pro-rata of its
	// own 67MB runtime layer out of 168MB total.
	nodeFn := echoFn("node", 0)
	nodeFn.Image = "node:10"
	nodeFn.Pull, nodeFn.AppInit = 100*time.Millisecond, time.Millisecond
	inst, info, err = g.bootInstance(context.Background(), nodeFn)
	if err != nil {
		t.Fatal(err)
	}
	inst.stop()
	if info.skippedMB != 101 {
		t.Fatalf("node boot skipped %.0fMB, want the 101MB shared debian base", info.skippedMB)
	}
	phase := float64(100 * time.Millisecond)
	wantPull := time.Duration(phase * 67 / 168)
	if diff := info.pull - wantPull; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("node pull = %v, want ~%v (67/168 of the phase)", info.pull, wantPull)
	}

	if st := g.ColdPathStats(); st.PullSkippedMB < pySize+100 || st.CacheMB != 101+48+9+67 {
		t.Fatalf("ColdPathStats = %+v, want ~%.0fMB skipped and 225MB cached", st, pySize+101)
	}
}

// Under memory-budget pressure the janitor hands back idle generics
// before touching any function's warm pool: generics carry no function
// state, so they are the cheapest reclaim.
func TestReclaimMemoryReapsGenericsFirst(t *testing.T) {
	const mib = int64(1 << 20)
	g := New(PoolConfig{Prefork: true, PreforkSize: 2, MemoryBudget: 1 * mib, InstanceMemBytes: mib})
	if err := g.Register(echoFn("f", time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.refillPrefork()
	waitIdleGenerics(t, g, 2)

	// Prime one warm instance: total = 1 warm + 2 generic = 3, budget 1.
	rec := httptest.NewRecorder()
	g.handle(rec, httptest.NewRequest("POST", "/function/f", strings.NewReader("x")))
	if rec.Code != 200 {
		t.Fatalf("prime: status %d", rec.Code)
	}
	waitIdleGenerics(t, g, 2) // the prime took one; its refill is asynchronous

	if n := g.reclaimMemoryOnce(); n != 2 {
		t.Fatalf("reclaimMemoryOnce = %d, want exactly the 2 generics", n)
	}
	if got := g.cold.pool.Idle(); got != 0 {
		t.Fatalf("generic idle after reclaim = %d, want 0", got)
	}
	if got := g.WarmInstances("f"); got != 1 {
		t.Fatalf("warm instances after reclaim = %d, want 1 (generics go first)", got)
	}
	if st := g.ColdPathStats(); st.GenericReaped != 2 {
		t.Fatalf("ColdPathStats = %+v, want GenericReaped 2", st)
	}
	if wm := g.WarmMemory(); wm.Reclaimed != 2 || wm.WarmBytes != mib {
		t.Fatalf("WarmMemory = %+v, want 2 reclaimed and 1MiB resident", wm)
	}
}

// When the generics alone do not cover the excess, the remainder still
// comes out of the warm shards.
func TestReclaimMemorySpillsPastGenerics(t *testing.T) {
	const mib = int64(1 << 20)
	g := New(PoolConfig{Prefork: true, PreforkSize: 1, MemoryBudget: 1 * mib, InstanceMemBytes: mib})
	if err := g.Register(echoFn("f", time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.refillPrefork()
	waitIdleGenerics(t, g, 1)

	// Two warm instances via two overlapping requests.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			g.handle(rec, httptest.NewRequest("POST", "/function/f", strings.NewReader("x")))
		}()
	}
	wg.Wait()
	if got := g.WarmInstances("f"); got != 2 {
		t.Skipf("warm instances = %d, want 2 (requests did not overlap)", got)
	}
	waitIdleGenerics(t, g, 1) // one request took the generic; its refill is asynchronous

	// total = 2 warm + 1 generic = 3, budget 1: the generic goes, then
	// one warm instance.
	if n := g.reclaimMemoryOnce(); n != 2 {
		t.Fatalf("reclaimMemoryOnce = %d, want 2 (1 generic + 1 warm)", n)
	}
	if got := g.WarmInstances("f"); got != 1 {
		t.Fatalf("warm instances after reclaim = %d, want 1", got)
	}
	if st := g.ColdPathStats(); st.GenericReaped != 1 {
		t.Fatalf("ColdPathStats = %+v, want GenericReaped 1", st)
	}
}

// The controller's prewarms draw from the generic pool too: a prewarm
// is just a boot nobody is waiting on, and it should be as cheap as
// any other.
func TestPrewarmUsesGenericPool(t *testing.T) {
	g := New(PoolConfig{Prefork: true, PreforkSize: 1})
	if err := g.Register(echoFn("f", 50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.refillPrefork()
	waitIdleGenerics(t, g, 1)

	s := g.shard("f")
	g.wg.Add(1) // prewarmOne is normally spawned by controlOnce, which Adds
	start := time.Now()
	g.prewarmOne(s, s.fn)
	elapsed := time.Since(start)
	if got := g.WarmInstances("f"); got != 1 {
		t.Fatalf("warm instances after prewarm = %d, want 1", got)
	}
	// A generic handoff pays only app init (7.5ms of the 50ms split); a
	// full cold boot would have paid all 50ms.
	if elapsed >= 35*time.Millisecond {
		t.Fatalf("prewarm took %v, want the generic-pool fast path", elapsed)
	}
	// The prewarm drained the pool and triggered its refill.
	waitIdleGenerics(t, g, 1)
	if st := g.ColdPathStats(); st.RefillBoots < 2 {
		t.Fatalf("ColdPathStats = %+v, want a second refill boot after the prewarm", st)
	}
}

// A watchdog accept loop dying is no longer silent: the error feeds a
// resilience counter and event instead of vanishing in a goroutine.
func TestWatchdogServeErrorSurfaces(t *testing.T) {
	g := NewGateway(true)
	defer g.Stop()
	g.watchdogServeError(errors.New("accept: too many open files"))
	if got := g.ResilienceCounters()["watchdog.serve_errors"]; got != 1 {
		t.Fatalf("watchdog.serve_errors = %d, want 1", got)
	}
}

// Deploys referencing an image are validated against the registry and
// surfaced through /system/stats' coldPath block.
func TestDaemonDeployWithImage(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})

	if err := d.Deploy(DeploySpec{Name: "bad", Handler: "echo", Image: "no-such-image:1.0"}); err == nil {
		t.Fatal("deploy with unknown image succeeded, want error")
	}
	if err := d.Deploy(DeploySpec{Name: "neg", Handler: "echo", PullMs: -1}); err == nil {
		t.Fatal("deploy with negative pull phase succeeded, want error")
	}
	if err := d.Deploy(DeploySpec{Name: "py", Handler: "echo", Image: "python:3.8", PullMs: 5, AppInitMs: 1}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, base+"/function/py", "x")
	if resp.StatusCode != 200 {
		t.Fatalf("invoke status %d", resp.StatusCode)
	}
	var got struct {
		ColdPath ColdPathStats `json:"coldPath"`
	}
	statsResp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	if err := json.NewDecoder(statsResp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ColdPath.CacheMB != 101+48+9 {
		t.Fatalf("coldPath = %+v, want the python:3.8 layers (158MB) cached", got.ColdPath)
	}
}

// Churn the whole cold path under the race detector: concurrent
// requests over several functions, pool refills, reclaims and stats
// snapshots.
func TestColdPathConcurrentChurn(t *testing.T) {
	const mib = int64(1 << 20)
	g := New(PoolConfig{
		Prefork: true, PreforkSize: 2, PreforkBoot: time.Millisecond,
		MemoryBudget: 4 * mib, InstanceMemBytes: mib,
	})
	names := []string{"a", "b", "c"}
	images := []string{"python:3.8", "node:10", ""}
	for i, n := range names {
		fn := echoFn(n, 2*time.Millisecond)
		fn.Image = images[i]
		if err := g.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Stop()
	g.refillPrefork()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := names[(w+i)%len(names)]
				rec := httptest.NewRecorder()
				g.handle(rec, httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x")))
				if rec.Code != 200 {
					t.Errorf("status %d for %s", rec.Code, name)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			g.reclaimMemoryOnce()
			g.ColdPathStats()
			g.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	st := g.Stats()
	if st.Requests != 8*30 {
		t.Fatalf("requests = %d, want %d", st.Requests, 8*30)
	}
	if cp := g.ColdPathStats(); cp.PullSkippedMB <= 0 {
		t.Fatalf("ColdPathStats = %+v, want layer-cache hits under churn", cp)
	}
}

// Ensure the string form of every boot mode is stable: these are wire
// values in X-Hotc-Boot.
func TestBootModeStrings(t *testing.T) {
	for _, tc := range []struct {
		mode bootMode
		want string
	}{{bootWarm, "warm"}, {bootGeneric, "generic"}, {bootCold, "cold"}} {
		if got := tc.mode.String(); got != tc.want {
			t.Fatalf("bootMode(%d) = %q, want %q", tc.mode, got, tc.want)
		}
	}
}
