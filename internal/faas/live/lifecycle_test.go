package live

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/prefork"
)

// onBackends runs test once per backend, as a subtest named after it:
// what a test pins through it holds on the socket and in process.
func onBackends(t *testing.T, test func(t *testing.T, backend string)) {
	t.Helper()
	for _, b := range []string{BackendSocket, BackendInProcess} {
		t.Run(b, func(t *testing.T) { test(t, b) })
	}
}

// errBootRefused is what a bootRefused clock's waits fail with.
var errBootRefused = errors.New("live: boot refused")

// bootRefused is a clock whose next wait on a request's behalf fails
// once armed: that request's boot fails in its first phase, on either
// backend — the one way to fail a boot in process. Waits under life, the
// gateway's own (a generic refill's), are never refused.
type bootRefused struct {
	clock
	life  context.Context
	armed atomic.Bool
}

// refuseBoots wraps g's clock, before anything reads it concurrently.
func refuseBoots(g *Gateway) *bootRefused {
	c := &bootRefused{clock: g.clock, life: g.life}
	g.clock = c
	return c
}

func (c *bootRefused) Sleep(ctx context.Context, d time.Duration) error {
	if ctx != c.life && c.armed.CompareAndSwap(true, false) {
		return errBootRefused
	}
	return c.clock.Sleep(ctx, d)
}

// checkPool asserts the warm-list invariants on every shard: the
// hotc_live_warm_instances gauge equals the list length, the list is
// within the warm cap, no tainted instance is idle, every idle instance
// holds a connection on the socket backend and none in process, and — the caller has quiesced its requests —
// nothing is counted in flight.
func checkPool(t *testing.T, g *Gateway) {
	t.Helper()
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		if got := int(s.m.warm.Value()); got != len(s.idle) {
			t.Errorf("%s: warm gauge = %d, list holds %d", s.name, got, len(s.idle))
		}
		if limit := g.cfg.MaxIdlePerFunction; limit > 0 && len(s.idle) > limit {
			t.Errorf("%s: %d idle past the warm cap %d", s.name, len(s.idle), limit)
		}
		for i, inst := range s.idle {
			if inst.tainted.Load() {
				t.Errorf("%s: idle[%d] is tainted", s.name, i)
			}
			if (inst.hop == nil) != (g.cfg.Backend == BackendInProcess) {
				t.Errorf("%s: idle[%d] holds a connection: %v, want one only on the socket backend", s.name, i, inst.hop != nil)
			}
		}
		if s.ctl.InFlight != 0 {
			t.Errorf("%s: %d requests in flight at quiescence", s.name, s.ctl.InFlight)
		}
		s.mu.Unlock()
	}
}

// stackCount counts occurrences of frame in a dump of every goroutine's
// stack.
func stackCount(frame string) int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), frame)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// liveWatchdogs counts running watchdog accept loops in this process. A
// stopped watchdog's loop has exited when Stop returns, so a boot that
// abandons its watchdog without stopping it shows up here exactly.
func liveWatchdogs() int { return stackCount("hotc/internal/prefork.Start.func1") }

// The phase table, row by row, read off the delays a boot asks the
// clock to sleep: which of wipe, pull, runtime init and app init each
// mode pays, without waiting any of them out.
func TestBootPhaseTable(t *testing.T) {
	g := New(PoolConfig{Backend: BackendSocket, ShareWipe: 3 * time.Millisecond, DisableLayerCache: true})
	defer g.Stop()
	clk := newFakeClock()
	g.clock = clk
	ms := time.Millisecond
	fn := func(image string) Function { // pull 110ms, runtime 60ms, app 30ms
		f := echoFn("f", 200*ms)
		f.Image = image
		return f
	}
	generic := func() bootSource {
		wd, err := prefork.Start(nil)
		if err != nil {
			t.Fatal(err)
		}
		return bootSource{generic: wd}
	}
	lent := func(image string) bootSource {
		inst, _, err := g.boot(context.Background(), fn(image), bootSource{})
		if err != nil {
			t.Fatal(err)
		}
		return bootSource{lent: inst}
	}
	for _, tc := range []struct {
		name string
		fn   Function
		from bootSource
		want bootInfo
	}{
		{"full cold", fn("python:3.8"), bootSource{}, bootInfo{mode: bootCold, pull: 110 * ms, runtime: 60 * ms, app: 30 * ms}},
		{"generic with image", fn("python:3.8"), generic(), bootInfo{mode: bootGeneric, pull: 110 * ms, app: 30 * ms}},
		{"generic without image", fn(""), generic(), bootInfo{mode: bootGeneric, app: 30 * ms}},
		{"rented same image", fn("python:3.8"), lent("python:3.8"), bootInfo{mode: bootRented, wipe: 3 * ms, app: 30 * ms}},
		{"rented other image", fn("node:10"), lent("python:3.8"), bootInfo{mode: bootRented, wipe: 3 * ms, pull: 110 * ms, app: 30 * ms}},
	} {
		before := len(clk.sleeps())
		inst, info, err := g.boot(context.Background(), tc.fn, tc.from)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		paid := clk.sleeps()[before:]
		if info != tc.want {
			t.Errorf("%s: boot paid %+v, want %+v", tc.name, info, tc.want)
		}
		rest := tc.want.pull + tc.want.runtime + tc.want.app
		if len(paid) != 2 || paid[0] != tc.want.wipe || paid[1] != rest {
			t.Errorf("%s: slept %v, want [%v %v]", tc.name, paid, tc.want.wipe, rest)
		}
		if tc.from.lent != nil && (tc.from.lent.hop != nil || inst.hop == nil || inst.wd != tc.from.lent.wd) {
			t.Errorf("%s: the lender's watchdog and connection did not move to the renter", tc.name)
		}
		inst.stop()
	}
}

// A request abandoned 10 ms into a 2 s boot returns at once, on every
// tier: nothing is pooled, the request counts as canceled and not as a
// boot failure (the breaker, armed at one failure, stays closed), and
// the watchdog it was booting is stopped — for a rented boot that is
// the lender's container, destroyed whether the cancel lands mid-wipe
// or after re-specialization, never handed back.
func TestBootCancellationPerTier(t *testing.T) {
	const bootTime = 2 * time.Second
	for _, tier := range []string{"cold", "generic", "rented", "rented mid-wipe"} {
		t.Run(tier, func(t *testing.T) {
			onBackends(t, func(t *testing.T, backend string) {
				before := liveWatchdogs()
				cfg := PoolConfig{Backend: backend, BreakerThreshold: 1}
				// App init, the phase every tier pays, is 15% of the
				// boot: bootTime.
				f := echoFn("f", bootTime*100/15)
				switch tier {
				case "generic":
					cfg.Prefork, cfg.PreforkSize = true, 1
				case "rented":
					cfg.Share, cfg.ShareWipe, cfg.ShareIdleGrace = true, time.Millisecond, -1
				case "rented mid-wipe":
					cfg.Share, cfg.ShareWipe, cfg.ShareIdleGrace = true, bootTime, -1
					f.ColdStart = 0
				}
				g := New(cfg)
				defer g.Stop()
				for _, fn := range []Function{f, echoFn("lender", 0)} {
					if err := g.Register(fn); err != nil {
						t.Fatal(err)
					}
				}
				var lent *instance
				wantCold := 1
				if cfg.Prefork {
					g.refillPrefork()
					waitIdleGenerics(t, g, 1)
				}
				if cfg.Share {
					postRec(t, g, "lender", "warm")
					lent = idleInstances(g, "lender")[0]
					wantCold++ // the lender's own
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				time.AfterFunc(10*time.Millisecond, cancel)
				req := httptest.NewRequest("POST", "/function/f", strings.NewReader("x")).WithContext(ctx)
				start := time.Now()
				g.handle(httptest.NewRecorder(), req)
				if elapsed := time.Since(start); elapsed >= bootTime/4 {
					t.Fatalf("abandoned request took %v of a %v boot", elapsed, bootTime)
				}

				if got := g.WarmInstances("f"); got != 0 {
					t.Errorf("abandoned boot pooled %d instances", got)
				}
				if st := g.Stats(); st.Canceled != 1 || st.ColdStarts != wantCold || st.RentedBoots+st.GenericHandoffs != 0 {
					t.Errorf("stats = %+v, want the abandoned cold start counted canceled and under no tier", st)
				}
				res := g.ResilienceCounters()
				if res["boot.failures"]+res["breaker.trips"]+res["breaker.rejected"] != 0 {
					t.Errorf("resilience = %v, want an abandoned boot to feed neither boot.failures nor the breaker", res)
				}
				if lent != nil {
					if g.WarmInstances("lender") != 0 || !lent.tainted.Load() {
						t.Error("the lent instance went back to its lender")
					}
					if sh := g.SharingStats(); sh.LeasesGranted != 0 {
						t.Errorf("LeasesGranted = %d for an abandoned lease", sh.LeasesGranted)
					}
				}
				checkPool(t, g)
				g.Stop()
				if got := liveWatchdogs(); got != before {
					t.Errorf("%d watchdogs still running after Stop: the abandoned boot leaked its own", got-before)
				}
			})
		})
	}
}

// Stop abandons generic refills mid-boot instead of waiting them out,
// and an abandoned refill is not a prefork boot failure.
func TestStopDuringGenericRefillDoesNotWait(t *testing.T) {
	onBackends(t, func(t *testing.T, backend string) {
		before := liveWatchdogs()
		g := New(PoolConfig{Backend: backend, Prefork: true, PreforkSize: 2, PreforkBoot: 2 * time.Second})
		g.refillPrefork()
		if got := g.cold.pool.Booting(); got != 2 {
			t.Fatalf("booting = %d, want 2 refills in flight", got)
		}
		start := time.Now()
		g.Stop()
		if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
			t.Fatalf("Stop took %v: it waited out the 2s generic boots", elapsed)
		}
		if got := g.ResilienceCounters()["prefork.boot_failures"]; got != 0 {
			t.Errorf("prefork.boot_failures = %d for refills Stop abandoned", got)
		}
		if got := liveWatchdogs(); got != before {
			t.Errorf("%d generic watchdogs still running after Stop", got-before)
		}
	})
}

// A failed prewarm boot is counted and evented under its own key, so
// boot.failures — failures a request saw — does not move.
func TestPrewarmBootFailureIsCounted(t *testing.T) {
	before := liveWatchdogs()
	g := New(PoolConfig{Backend: BackendSocket, NewPredictor: naiveFactory, ControlInterval: time.Hour})
	defer g.Stop()
	g.dial = func(context.Context, string) (net.Conn, error) { return nil, errors.New("dial refused") }
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	s := g.shard("f")
	g.wg.Add(1) // prewarmOne is normally spawned by controlOnce, which Adds
	g.prewarmOne(s, s.fn)

	res := g.ResilienceCounters()
	if res["prewarm.failures"] != 1 || res["boot.failures"] != 0 {
		t.Errorf("resilience = %v, want prewarm.failures 1 and no boot.failures", res)
	}
	if got := g.obs.events["prewarm-boot-failure"].Value(); got != 1 {
		t.Errorf("prewarm-boot-failure events = %v, want 1", got)
	}
	if st := g.Stats(); st.Prewarmed != 0 || g.WarmInstances("f") != 0 {
		t.Errorf("a failed prewarm was pooled: %+v", st)
	}
	if got := liveWatchdogs(); got != before {
		t.Errorf("the failed prewarm left %d watchdogs running", got-before)
	}
}

// An instance in flight across a redeploy belongs to the old deployment:
// it is stopped when its request finishes, never parked under the new
// function.
func TestRedeployStopsInstanceInFlight(t *testing.T) {
	g := New(PoolConfig{})
	defer g.Stop()
	entered, proceed := make(chan struct{}), make(chan struct{})
	if err := g.Register(Function{Name: "f", Handler: func(context.Context, []byte) ([]byte, error) {
		close(entered)
		<-proceed
		return []byte("old"), nil
	}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() { done <- postRec(t, g, "f", "x").Body.String() }()
	<-entered
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	if got := <-done; got != "old" {
		t.Fatalf("in-flight request answered %q, want the version it started on", got)
	}
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatalf("the old deployment's instance was parked (%d warm)", got)
	}
	rec := postRec(t, g, "f", "y")
	if rec.Body.String() != "echo:y" || rec.Header().Get("X-Hotc-Reused") != "false" {
		t.Fatalf("after redeploy: %q reused=%s, want the new handler on a fresh instance", rec.Body, rec.Header().Get("X-Hotc-Reused"))
	}
	checkPool(t, g)
}
