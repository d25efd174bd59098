package live

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"hotc/internal/admission"
	"hotc/internal/obs"
)

// Every test below swaps the fake clock into a gateway and moves only
// it: each timed decision must follow the fake clock, whatever the wall
// clock does meanwhile.

// eventually waits up to five wall seconds for cond.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never reached: %s", what)
		}
	}
}

// A tripped breaker half-opens when the clock passes BreakerOpenFor: a
// second short, it still fast-fails with that second as its Retry-After;
// at the window's end the probe goes through and its success closes it.
func TestBreakerHalfOpensOnTheClock(t *testing.T) {
	g, clk, base := startControlled(t, PoolConfig{BreakerThreshold: 2, BreakerOpenFor: time.Minute}, echoFn("f", 0))
	s := g.shard("f")
	g.breakerFailure(s, "boot.failures")
	g.breakerFailure(s, "boot.failures")

	clk.Advance(time.Minute - time.Second)
	resp := postJSON(t, base+"/function/f", "x")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("a second before the window ends: %d, Retry-After %q; want 503, 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	clk.Advance(time.Second)
	if resp := postJSON(t, base+"/function/f", "x"); resp.StatusCode != http.StatusOK {
		t.Fatalf("at the window's end: %d, want the probe's 200", resp.StatusCode)
	}
	if got := g.ResilienceCounters()["breaker.closes"]; got != 1 {
		t.Fatalf("breaker.closes = %d, want 1", got)
	}
}

// /system/stats reports a warm instance's age on the clock that stamped
// it idle.
func TestStatsWarmAgesOnTheClock(t *testing.T) {
	g, clk, base := startControlled(t, PoolConfig{}, echoFn("f", 0))
	post(t, base+"/function/f", "x")
	waitWarm(t, g, "f", 1)
	clk.Advance(90 * time.Second)

	resp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		WarmAges map[string][]float64 `json:"warmAgeSeconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if ages := got.WarmAges["f"]; len(ages) != 1 || ages[0] != 90 {
		t.Fatalf("warmAgeSeconds[f] = %v, want [90]", ages)
	}
}

// The SLO monitor's burn windows slide on the clock: one failed request
// is a bad event in every window until the clock leaves the 1m window,
// then the 30m one, behind it.
func TestSLOWindowsSlideOnTheClock(t *testing.T) {
	fail := Function{Name: "f", Handler: func(context.Context, []byte) ([]byte, error) { return nil, errors.New("boom") }}
	g, clk, base := startControlled(t, PoolConfig{SLOLatency: time.Second}, fail)
	if resp := postJSON(t, base+"/function/f", "x"); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want the function's 500", resp.StatusCode)
	}
	bad := func() []uint64 {
		var out []uint64
		for _, o := range g.slo.Sync().Objectives {
			if o.Name == obs.SLOGoodput {
				for _, w := range o.Windows {
					out = append(out, w.Bad)
				}
			}
		}
		return out
	}
	for _, step := range []struct {
		advance time.Duration
		want    []uint64
	}{{0, []uint64{1, 1, 1}}, {time.Minute, []uint64{0, 1, 1}}, {30 * time.Minute, []uint64{0, 0, 0}}} {
		clk.Advance(step.advance)
		if got := bad(); !slices.Equal(got, step.want) {
			t.Fatalf("after %v more: goodput bad events per 1m/5m/30m window = %v, want %v", step.advance, got, step.want)
		}
	}
}

// The control cycle runs on the clock's tickers, on its own goroutine:
// advancing by ReapInterval runs one janitor pass and no control tick,
// advancing on to ControlInterval one control tick and no janitor pass,
// and nothing runs while the clock stands still. Stopped while the cycle
// waits on the ticker, the gateway stops both tickers (and the
// HOTC_LEAKCHECK pass finds no goroutine left).
func TestCycleTicksDeterministicallyOnTheClock(t *testing.T) {
	g, clk, _ := startControlled(t, PoolConfig{NewPredictor: naiveFactory,
		ControlInterval: 10 * time.Second, ReapInterval: 7 * time.Second, IdleTTL: 5 * time.Second})
	if err := g.Register(echoFn("f", 0)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the cycle's two tickers run", func() bool { return clk.ticking() == 2 })
	ticks := func() float64 { return g.reg.Counter("hotc_ctl_ticks_total", "").Value() }

	park(t, g, "f", clk.Now())                    // idle 7s at the reap tick: expires
	park(t, g, "f", clk.Now().Add(4*time.Second)) // idle 3s at the reap tick: stays
	clk.Advance(7 * time.Second)
	eventually(t, "the janitor pass", func() bool { return g.Stats().Expired == 1 })
	if g.WarmInstances("f") != 1 || ticks() != 0 {
		t.Fatalf("after the reap tick: %d warm, %v control ticks; want 1, 0", g.WarmInstances("f"), ticks())
	}

	clk.Advance(3 * time.Second)
	eventually(t, "the control tick", func() bool { return ticks() == 1 })
	time.Sleep(20 * time.Millisecond) // the wall clock moves, the fake one does not
	if ticks() != 1 || g.Stats().Expired != 1 || g.PredictionTraces()["f"].Ticks != 1 {
		t.Fatalf("after the control tick: %v control ticks, %d expired, %d function ticks; want 1, 1, 1",
			ticks(), g.Stats().Expired, g.PredictionTraces()["f"].Ticks)
	}

	g.Stop()
	if n := clk.ticking(); n != 0 {
		t.Fatalf("the stopped cycle left %d tickers running", n)
	}
}

// A queued request whose deadline passes on the clock is answered 429
// at once, however little wall time went by and with the slot it waits
// for still held.
func TestQueuedDeadlineExpiresOnTheClock(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()
	g, clk, base := startControlled(t, PoolConfig{MaxInFlight: 1, QueueDepth: 4}, blockingFn("f", entered, release))

	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, err := postTenant(base, "f", "", "x", nil); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered
	queued := make(chan *http.Response, 1)
	go func() {
		resp, _ := postTenant(base, "f", "", "x", map[string]string{DeadlineHeader: "60000"})
		queued <- resp
	}()
	waitAdm(t, g, "f", "one queued", func(st admission.Stats) bool { return st.Queued == 1 })

	// The slot stays held: only the clock passing the deadline can
	// answer the queued request.
	clk.Advance(time.Minute + time.Second)
	var resp *http.Response
	select {
	case resp = <-queued:
	case <-time.After(5 * time.Second):
		free()
		t.Fatal("the queued request was not answered when the clock passed its deadline")
	}
	free()
	if resp == nil {
		t.Fatal("the queued request got no response")
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(RejectedHeader) != string(admission.ReasonDeadline) {
		t.Fatalf("queued past its deadline: %d, %s %q; want 429, %q", resp.StatusCode,
			RejectedHeader, resp.Header.Get(RejectedHeader), admission.ReasonDeadline)
	}
}
