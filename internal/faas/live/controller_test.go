package live

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/kernel"
	"hotc/internal/predictor"
)

// fakeClock is the test clock a gateway's clock field is swapped to.
// Its time moves only when a test advances it or a Sleep spends it: a
// sleeper advances the clock by what it sleeps, as a process does on the
// simulator's virtual time. Its tickers fire as the clock passes their
// instants, once per pass however many periods it spans, and its
// deadline contexts end as it reaches their instants.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Time
	slept     []time.Duration // every Sleep's d, in call order
	tickers   []*fakeTicker
	deadlines []*fakeDeadline
}

type fakeTicker struct {
	c     chan time.Time
	every time.Duration
	next  time.Time
}

// newFakeClock starts at the wall clock's reading, so a gateway it is
// swapped into right after New finds its construction instant — the
// span epoch and the breaker's time base — just behind it.
func newFakeClock() *fakeClock { return &fakeClock{t: time.Now().Round(0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	for _, tk := range f.tickers {
		if !tk.next.After(f.t) {
			select {
			case tk.c <- f.t:
			default: // the reader has not taken the last tick: drop this one
			}
			tk.next = tk.next.Add((f.t.Sub(tk.next)/tk.every + 1) * tk.every)
		}
	}
	f.deadlines = slices.DeleteFunc(f.deadlines, func(d *fakeDeadline) bool {
		if d.at.After(f.t) {
			return false
		}
		d.expire()
		return true
	})
	return f.t
}

// fakeDeadline is a context fakeClock.WithDeadline hands out: its parent
// under a cancel, which the clock fires on reaching at.
type fakeDeadline struct {
	context.Context
	at      time.Time
	cancel  context.CancelFunc
	expired atomic.Bool
}

func (d *fakeDeadline) Deadline() (time.Time, bool) { return d.at, true }

// Err is context.DeadlineExceeded once the clock has ended d.
func (d *fakeDeadline) Err() error {
	if d.expired.Load() {
		return context.DeadlineExceeded
	}
	return d.Context.Err()
}

// expire ends d at its deadline, unless its parent ended it first.
func (d *fakeDeadline) expire() {
	if d.Context.Err() == nil {
		d.expired.Store(true)
	}
	d.cancel()
}

func (f *fakeClock) WithDeadline(parent context.Context, t time.Time) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancel(parent)
	d := &fakeDeadline{Context: inner, at: t, cancel: cancel}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !t.After(f.t) {
		d.expire()
		return d, cancel
	}
	f.deadlines = append(f.deadlines, d)
	return d, func() {
		f.mu.Lock()
		f.deadlines = slices.DeleteFunc(f.deadlines, func(x *fakeDeadline) bool { return x == d })
		f.mu.Unlock()
		cancel()
	}
}

// Sleep logs d and, unless ctx is done, spends it at once.
func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.slept = append(f.slept, d)
	f.mu.Unlock()
	if err := ctx.Err(); err != nil || d <= 0 {
		return err
	}
	f.Advance(d)
	return nil
}

func (f *fakeClock) NewTicker(d time.Duration) (<-chan time.Time, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tk := &fakeTicker{c: make(chan time.Time, 1), every: d, next: f.t.Add(d)}
	f.tickers = append(f.tickers, tk)
	return tk.c, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.tickers = slices.DeleteFunc(f.tickers, func(x *fakeTicker) bool { return x == tk })
	}
}

// sleeps returns what Sleep has been asked for so far.
func (f *fakeClock) sleeps() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.slept)
}

// ticking reports how many tickers are running on the clock.
func (f *fakeClock) ticking() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tickers)
}

// startControlled builds a gateway on the fake clock, started with
// adaptive control armed and the cycle's periods an hour unless cfg sets
// them, so tests drive controlOnce/janitorOnce by hand.
func startControlled(t *testing.T, cfg PoolConfig, fns ...Function) (*Gateway, *fakeClock, string) {
	t.Helper()
	clk := newFakeClock()
	g, base := startWith(t, clk, cfg, fns...)
	return g, clk, base
}

// startWith builds and starts a gateway on c, with the cycle's periods an
// hour unless cfg sets them, and stops it when the test ends.
func startWith(t *testing.T, c clock, cfg PoolConfig, fns ...Function) (*Gateway, string) {
	t.Helper()
	if cfg.ControlInterval == 0 {
		cfg.ControlInterval = time.Hour
	}
	if cfg.ReapInterval == 0 {
		cfg.ReapInterval = time.Hour
	}
	g := New(cfg)
	g.clock = c
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
	return g, base
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
		Function{Name: "f", Handler: func(_ context.Context, b []byte) ([]byte, error) {
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
	// On the wall clock: the boots must still be in flight when Stop comes.
	g, _ := startWith(t, wallClock{},
		PoolConfig{NewPredictor: naiveFactory},
		echoFn("f", 150*time.Millisecond))

	s := g.shard("f")
	s.mu.Lock()
	s.ctl.Peak = 2
	s.mu.Unlock()
	g.controlOnce("f", g.clock.Now()) // schedules 2 boots of 150ms each

	g.Stop() // abandons the boots; they must self-destruct
	if got := g.WarmInstances("f"); got != 0 {
		t.Fatalf("prewarm leaked %d instances into a stopped gateway", got)
	}
	if st := g.Stats(); st.Prewarmed != 0 {
		t.Fatalf("Prewarmed = %d, want 0 after stop", st.Prewarmed)
	}
	checkPool(t, g)
}

// hotc_ctl_prewarm_total counts the boots the control loop asked for,
// as in the simulator and its HELP string, even when none lands; how
// many landed is Stats.Prewarmed.
func TestCtlPrewarmCountsWhatWasAsked(t *testing.T) {
	// On the wall clock: the boots must still be in flight when Stop comes.
	g, _ := startWith(t, wallClock{},
		PoolConfig{NewPredictor: naiveFactory},
		echoFn("f", 150*time.Millisecond))

	s := g.shard("f")
	s.mu.Lock()
	s.ctl.Peak = 2
	s.mu.Unlock()
	g.controlOnce("f", g.clock.Now())
	s.mu.Lock()
	asked := s.ctl.booting // the 150ms boots are still in flight
	s.mu.Unlock()
	if asked == 0 {
		t.Fatal("the tick planned no boot")
	}

	g.Stop() // abandons the boots: none lands
	if got := g.reg.Counter("hotc_ctl_prewarm_total", "").Value(); got != float64(asked) {
		t.Fatalf("hotc_ctl_prewarm_total = %v, want the %d boots the tick asked for", got, asked)
	}
	if st := g.Stats(); st.Prewarmed != 0 {
		t.Fatalf("Prewarmed = %d, want 0: no prewarm landed", st.Prewarmed)
	}
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

// Expiry leaves the planned set. One function at a steady rate, two
// arrivals per control interval, each gap five keep-alives long, the
// janitor at every keep-alive: the forecast holds the one instance the
// arrivals use, so from the first forecast on nothing expires, every
// arrival is warm and the controller boots nothing more — no prewarm is
// booted only to expire before its arrival.
func TestJanitorLeavesThePlannedSet(t *testing.T) {
	const tick, ttl = time.Second, 100 * time.Millisecond
	onBackends(t, func(t *testing.T, backend string) {
		g, clk, base := startControlled(t,
			PoolConfig{Backend: backend, NewPredictor: func() predictor.Predictor { return predictor.Default() }, IdleTTL: ttl},
			echoFn("f", 0))

		post(t, base+"/function/f", "x")
		waitWarm(t, g, "f", 1)
		g.controlOnce("f", clk.Now()) // the first forecast
		settle(t, g)
		first := g.Stats()
		for i := 1; i <= 12; i++ {
			for range 2 {
				post(t, base+"/function/f", "x")
				waitWarm(t, g, "f", 1)
				for range tick / 2 / ttl {
					g.janitorOnce(clk.Advance(ttl))
				}
			}
			g.controlOnce("f", clk.Now())
			settle(t, g)
			if st := g.Stats(); st.Expired != 0 || st.Prewarmed != first.Prewarmed || st.ColdStarts != first.ColdStarts {
				t.Fatalf("tick %d: Expired %d, Prewarmed %d, ColdStarts %d; want 0, %d and %d: the planned instance left alone",
					i, st.Expired, st.Prewarmed, st.ColdStarts, first.Prewarmed, first.ColdStarts)
			}
		}
	})
}

// What the plan holds is safe from the keep-alive only: the memory
// budget (oldest first), a redeploy and the plan's own Retire still take
// a held instance, and an instance above the forecast still expires at
// IdleTTL. hold parks n instances of f a second apart, so the oldest is
// known, and steps f's plan to a naive forecast of n, which holds them.
func TestJanitorPlannedSetYields(t *testing.T) {
	const ttl = time.Minute
	hold := func(t *testing.T, cfg PoolConfig, n int) (*Gateway, *fakeClock, *shard) {
		cfg.NewPredictor, cfg.IdleTTL = naiveFactory, ttl
		g, clk, _ := startControlled(t, cfg, echoFn("f", 0))
		for i := 0; i < n; i++ {
			park(t, g, "f", clk.Advance(time.Second))
		}
		s := g.shard("f")
		s.mu.Lock()
		s.ctl.Peak = n
		s.mu.Unlock()
		g.controlOnce("f", clk.Now())
		if st := g.Stats(); st.Retired != 0 || st.Prewarmed != 0 || s.ctl.hold != n {
			t.Fatalf("the plan holds %d with %+v, want %d with no boot or retire", s.ctl.hold, st, n)
		}
		return g, clk, s
	}
	onBackends(t, func(t *testing.T, backend string) {
		t.Run("memory budget", func(t *testing.T) {
			g, clk, s := hold(t, PoolConfig{Backend: backend, MemoryBudget: instanceMemBytes}, 2)
			newest := s.idle[1]
			g.janitorOnce(clk.Advance(2 * ttl))
			if got := g.obs.poolRetired[evictBudget].Value(); got != 1 || len(s.idle) != 1 || s.idle[0] != newest || g.Stats().Expired != 0 {
				t.Fatalf("retired{budget} %v, idle %d, Expired %d; want the older held instance reclaimed, not expired",
					got, len(s.idle), g.Stats().Expired)
			}
		})
		t.Run("redeploy", func(t *testing.T) {
			g, _, _ := hold(t, PoolConfig{Backend: backend}, 2)
			if err := g.Register(echoFn("f", 0)); err != nil {
				t.Fatal(err)
			}
			if got := g.obs.poolRetired[evictRedeploy].Value(); got != 2 || g.WarmInstances("f") != 0 {
				t.Fatalf("retired{redeploy} %v, warm %d; want both held instances gone", got, g.WarmInstances("f"))
			}
		})
		t.Run("falling forecast", func(t *testing.T) {
			g, clk, _ := hold(t, PoolConfig{Backend: backend}, 2)
			g.controlOnce("f", clk.Now()) // nothing in the interval: the forecast falls to 0
			if st := g.Stats(); st.Retired != 1 || g.WarmInstances("f") != 1 {
				t.Fatalf("Retired %d, warm %d; want the plan's Retire to take one", st.Retired, g.WarmInstances("f"))
			}
			g.janitorOnce(clk.Advance(ttl)) // and nothing is held any more
			if st := g.Stats(); st.Expired != 1 || g.WarmInstances("f") != 0 {
				t.Fatalf("Expired %d, warm %d; want the unheld rest expired", st.Expired, g.WarmInstances("f"))
			}
		})
		t.Run("surplus above the forecast", func(t *testing.T) {
			g, clk, s := hold(t, PoolConfig{Backend: backend}, 1)
			idleAt := clk.Now()
			park(t, g, "f", idleAt)
			park(t, g, "f", idleAt)
			held := s.idle[2]
			g.janitorOnce(idleAt.Add(ttl - time.Nanosecond))
			if g.WarmInstances("f") != 3 {
				t.Fatalf("janitor expired an instance %v before its keep-alive", time.Nanosecond)
			}
			g.janitorOnce(idleAt.Add(ttl))
			if st := g.Stats(); st.Expired != 2 || len(s.idle) != 1 || s.idle[0] != held {
				t.Fatalf("Expired %d, idle %d; want the two oldest expired and the planned one kept", st.Expired, len(s.idle))
			}
		})
	})
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

// reclaimMemoryOnce is the janitor's pass with the keep-alive off: the
// memory budget alone, at the gateway's now.
func (g *Gateway) reclaimMemoryOnce() int { return g.reclaim(g.clock.Now(), kernel.Fixed(0)) }

// Over the memory budget the longest-idle warm instances go first,
// whichever function holds them: "quiet" parked two a minute ago and
// "hot" four just now, so over a four-instance budget both of quiet's
// go and hot keeps its four.
func TestMemoryBudgetReclaimsLongestIdleFirst(t *testing.T) {
	g := New(PoolConfig{MemoryBudget: 4 * instanceMemBytes})
	defer g.Stop()
	clk := newFakeClock()
	g.clock = clk
	for _, name := range []string{"hot", "quiet"} {
		if err := g.Register(echoFn(name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		park(t, g, "quiet", clk.Now())
	}
	clk.Advance(time.Minute)
	for i := 0; i < 4; i++ {
		park(t, g, "hot", clk.Now())
	}

	if n := g.reclaimMemoryOnce(); n != 2 {
		t.Fatalf("reclaimed %d instances, want 2 (6 warm, budget 4)", n)
	}
	if got := warmCounts(g); got["hot"] != 4 || got["quiet"] != 0 {
		t.Fatalf("post-reclaim warm = %v, want hot:4 quiet:0 (the longest idle go first)", got)
	}
	mem := g.WarmMemory()
	if mem.Reclaimed != 2 || mem.WarmBytes != 4*instanceMemBytes || mem.BudgetBytes != 4*instanceMemBytes {
		t.Fatalf("WarmMemory = %+v", mem)
	}
	// Under budget now: another pass is a no-op.
	if n := g.reclaimMemoryOnce(); n != 0 {
		t.Fatalf("under-budget reclaim evicted %d", n)
	}
}

// A function busy every round keeps its working set under budget
// pressure: its instances are always the most recently parked, so a
// quieter function's go first and, after warm-up, every hot request is
// a warm hit, although the hot function is the largest holder.
func TestBudgetSparesTheHotFunction(t *testing.T) {
	g := New(PoolConfig{MemoryBudget: 4 * instanceMemBytes})
	defer g.Stop()
	clk := newFakeClock()
	g.clock = clk
	type held struct{ entered, release chan struct{} }
	fns := map[string]held{}
	for _, name := range []string{"hot", "quiet"} {
		h := held{make(chan struct{}), make(chan struct{})}
		if err := g.Register(blockingFn(name, h.entered, h.release)); err != nil {
			t.Fatal(err)
		}
		fns[name] = h
	}
	// burst serves n concurrent requests, all holding an instance at
	// once, and returns how many of them missed the warm pool.
	burst := func(name string, n int) int {
		h := fns[name]
		recs := make([]*httptest.ResponseRecorder, n)
		var wg sync.WaitGroup
		for i := range recs {
			recs[i] = httptest.NewRecorder()
			wg.Add(1)
			go func(rec *httptest.ResponseRecorder) {
				defer wg.Done()
				g.handle(rec, httptest.NewRequest(http.MethodPost, "/function/"+name, strings.NewReader("x")))
			}(recs[i])
		}
		for range recs {
			<-h.entered
		}
		for range recs {
			h.release <- struct{}{}
		}
		wg.Wait()
		misses := 0
		for _, rec := range recs {
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", name, rec.Code)
			}
			if rec.Header().Get("X-Hotc-Reused") != "true" {
				misses++
			}
		}
		return misses
	}
	for round := 0; round < 5; round++ {
		burst("quiet", 2)
		clk.Advance(time.Second)
		if misses := burst("hot", 4); round > 0 && misses != 0 {
			t.Fatalf("round %d: hot missed %d of 4 after warm-up", round, misses)
		}
		g.janitorOnce(clk.Advance(time.Second))
	}
	checkPool(t, g)
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
