package live

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hotc/internal/predictor"
)

// fakeClock is an injectable wall clock for deterministic keep-alive
// and controller timing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	return f.t
}

// startControlled builds a started gateway with adaptive control armed
// and background loops effectively idle (hour-long periods), so tests
// drive controlOnce/janitorOnce by hand with the fake clock.
func startControlled(t *testing.T, cfg PoolConfig, fns ...Function) (*Gateway, *fakeClock, string) {
	t.Helper()
	if cfg.ControlInterval == 0 {
		cfg.ControlInterval = time.Hour
	}
	if cfg.ReapInterval == 0 {
		cfg.ReapInterval = time.Hour
	}
	g := New(cfg)
	clk := newFakeClock()
	g.nowFn = clk.Now
	for _, fn := range fns {
		if err := g.Register(fn); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	return g, clk, base
}

func waitWarm(t *testing.T, g *Gateway, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.WarmInstances(name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("warm instances = %d, want %d", g.WarmInstances(name), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func naiveFactory() predictor.Predictor { return predictor.NewNaive() }

// The controller samples the interval's peak concurrent demand,
// forecasts the next interval and prewarms to meet it: after a burst
// of 3 whose instances expired, the next tick boots 3 fresh instances
// ahead of demand.
func TestControllerPrewarmsForecastDemand(t *testing.T) {
	g, clk, base := startControlled(t,
		PoolConfig{NewPredictor: naiveFactory, IdleTTL: time.Minute},
		Function{Name: "f", Handler: func(b []byte) ([]byte, error) {
			time.Sleep(50 * time.Millisecond)
			return b, nil
		}})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/function/f", "text/plain", strings.NewReader("x"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	waitWarm(t, g, "f", 3)

	// Keep-alive expires the burst's instances...
	g.janitorOnce(clk.Advance(2 * time.Minute))
	waitWarm(t, g, "f", 0)
	if st := g.Stats(); st.Expired != 3 {
		t.Fatalf("Expired = %d, want 3", st.Expired)
	}

	// ...but the controller saw peak demand 3 and prewarms it back.
	g.controlOnce("f", clk.Now())
	waitWarm(t, g, "f", 3)
	if st := g.Stats(); st.Prewarmed != 3 {
		t.Fatalf("Prewarmed = %d, want 3", st.Prewarmed)
	}
	tr := g.PredictionTraces()["f"]
	if tr.Ticks != 1 || tr.Forecast != 3 || len(tr.Observed) != 1 || tr.Observed[0] != 3 {
		t.Fatalf("trace = %+v", tr)
	}
}

// Falling demand scales the pool down with hysteresis (at most a
// quarter of the live set per tick) until nothing is left.
func TestControllerRetiresOnFallingDemand(t *testing.T) {
	g, clk, base := startControlled(t,
		PoolConfig{NewPredictor: naiveFactory, IdleTTL: time.Second},
		echoFn("f", 0))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/function/f", "text/plain", strings.NewReader("x"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	warm := g.WarmInstances("f")
	if warm == 0 {
		t.Fatal("no warm instances after burst")
	}
	g.controlOnce("f", clk.Now()) // observes the burst's peak

	// Demand goes to zero: each tick may retire at most
	// ceil(live*0.25); the pool must drain within a bounded number of
	// ticks and never jump to zero in one step from a large pool.
	first := true
	for i := 0; i < 20 && g.WarmInstances("f") > 0; i++ {
		before := g.WarmInstances("f")
		g.controlOnce("f", clk.Advance(time.Second))
		after := g.WarmInstances("f")
		if after > before {
			t.Fatalf("scale-down grew the pool: %d -> %d", before, after)
		}
		if first && before == 4 && before-after > 1 {
			t.Fatalf("hysteresis violated: retired %d of %d in one tick", before-after, before)
		}
		first = false
	}
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatalf("pool did not drain: %d warm", got)
	}
	if st := g.Stats(); st.Retired != warm {
		t.Fatalf("Retired = %d, want %d", st.Retired, warm)
	}
}

// The keep-alive, not the forecast, decides when a low-rate function
// loses its only warm instance: after one request the forecast decays
// to zero within seconds, but hotcd's defaults (es+markov, 2 s ticks,
// 5 min keep-alive) must keep the instance — neither retired nor
// retired-and-prewarmed-back — until the janitor expires it.
func TestControllerKeepsLastInstanceForKeepAlive(t *testing.T) {
	const tick, ttl = 2 * time.Second, 5 * time.Minute
	g, clk, base := startControlled(t,
		PoolConfig{NewPredictor: func() predictor.Predictor { return predictor.Default() },
			IdleTTL: ttl, MaxIdlePerFunction: 8},
		echoFn("f", 0))

	post(t, base+"/function/f", "x")
	waitWarm(t, g, "f", 1)
	for at := tick; at < ttl; at += tick {
		now := clk.Advance(tick)
		g.controlOnce("f", now)
		g.janitorOnce(now)
		if warm, st := g.WarmInstances("f"), g.Stats(); warm != 1 || st.Retired != 0 || st.Prewarmed != 0 {
			t.Fatalf("t+%v: warm %d, Retired %d, Prewarmed %d; want the one instance left alone",
				at, warm, st.Retired, st.Prewarmed)
		}
	}
	now := clk.Advance(tick)
	g.janitorOnce(now)
	g.controlOnce("f", now)
	s := g.shard("f")
	s.mu.Lock()
	booting := s.ctl.booting // a wrong prewarm is counted here before it boots
	s.mu.Unlock()
	if warm, st := g.WarmInstances("f"), g.Stats(); warm != 0 || booting != 0 || st.Expired != 1 || st.Retired != 0 || st.Prewarmed != 0 {
		t.Fatalf("after the keep-alive: warm %d, booting %d, stats %+v; want it expired and not booted back", warm, booting, st)
	}
}

// Prewarming never pushes the idle pool past MaxWarm.
func TestControllerPrewarmRespectsMaxWarm(t *testing.T) {
	g, clk, _ := startControlled(t,
		PoolConfig{NewPredictor: naiveFactory, MaxIdlePerFunction: 2},
		echoFn("f", 0))

	// Simulate a burst of 5 observed in the closing interval.
	s := g.shard("f")
	s.mu.Lock()
	s.ctl.Peak = 5
	s.mu.Unlock()

	g.controlOnce("f", clk.Now())
	waitWarm(t, g, "f", 2)
	time.Sleep(50 * time.Millisecond) // any excess boot would land by now
	if got := g.WarmInstances("f"); got != 2 {
		t.Fatalf("warm = %d, want MaxWarm 2", got)
	}
	if st := g.Stats(); st.Prewarmed != 2 {
		t.Fatalf("Prewarmed = %d, want 2", st.Prewarmed)
	}
}

// A prewarm boot that completes after Stop must tear its instance down
// instead of populating a dead pool — the janitor-side variant of the
// release-after-Stop race.
func TestStopDuringPrewarmDoesNotLeak(t *testing.T) {
	g, clk, _ := startControlled(t,
		PoolConfig{NewPredictor: naiveFactory},
		echoFn("f", 150*time.Millisecond))

	s := g.shard("f")
	s.mu.Lock()
	s.ctl.Peak = 2
	s.mu.Unlock()
	g.controlOnce("f", clk.Now()) // schedules 2 boots of 150ms each

	g.Stop() // abandons the boots; they must self-destruct
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatalf("prewarm leaked %d instances into a stopped gateway", got)
	}
	if st := g.Stats(); st.Prewarmed != 0 {
		t.Fatalf("Prewarmed = %d, want 0 after stop", st.Prewarmed)
	}
	checkPool(t, g)
}

// Keep-alive expiry against the injected clock: one nanosecond short
// keeps the instance, the exact TTL expires it.
func TestJanitorExpiryWithInjectedClock(t *testing.T) {
	g, clk, base := startControlled(t,
		PoolConfig{IdleTTL: time.Minute},
		echoFn("f", 0))

	post(t, base+"/function/f", "x")
	waitWarm(t, g, "f", 1)
	idleAt := clk.Now()

	g.janitorOnce(idleAt.Add(time.Minute - time.Nanosecond))
	if got := g.WarmInstances("f"); got != 1 {
		t.Fatalf("janitor expired an instance %v before its keep-alive", time.Nanosecond)
	}
	g.janitorOnce(idleAt.Add(time.Minute))
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatal("janitor kept an instance past its keep-alive")
	}
	if st := g.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

// The janitor must not touch a stopped gateway: Stop owns teardown.
func TestJanitorNoopAfterStop(t *testing.T) {
	g, clk, base := startControlled(t,
		PoolConfig{IdleTTL: time.Minute},
		echoFn("f", 0))
	post(t, base+"/function/f", "x")
	g.Stop()
	g.janitorOnce(clk.Advance(time.Hour)) // must not panic or resurrect
	if st := g.Stats(); st.Expired != 0 {
		t.Fatalf("janitor expired %d instances on a stopped gateway", st.Expired)
	}
}

// Race coverage: acquire/release traffic, controller ticks, janitor
// scans and stats reads all interleave. Run under -race.
func TestConcurrentAcquireReleaseControllerTicks(t *testing.T) {
	g, clk, base := startControlled(t,
		PoolConfig{NewPredictor: func() predictor.Predictor { return predictor.Default() },
			IdleTTL: 50 * time.Millisecond, MaxIdlePerFunction: 3},
		echoFn("f", 2*time.Millisecond))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Post(base+"/function/f", "text/plain", strings.NewReader("x"))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			g.controlOnce("f", clk.Advance(5*time.Millisecond))
			if got := g.WarmInstances("f"); got > 3 {
				t.Errorf("warm pool %d exceeds MaxWarm 3", got)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			g.janitorOnce(clk.Now())
			g.Stats()
			g.PredictionTraces()
			g.Forecasts()
		}
	}()
	wg.Wait()
	if got := g.WarmInstances("f"); got > 3 {
		t.Fatalf("warm pool %d exceeds MaxWarm 3", got)
	}
}
