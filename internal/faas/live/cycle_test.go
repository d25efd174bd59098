package live

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hotc/internal/sharing"
)

// park boots one instance of name and parks it as idle since at.
func park(t *testing.T, g *Gateway, name string, at time.Time) {
	t.Helper()
	s := g.shard(name)
	inst, _, err := g.bootInstance(context.Background(), s.fn)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.pushLocked(inst, at)
	s.mu.Unlock()
}

// warmCounts reads every function's idle count.
func warmCounts(g *Gateway) map[string]int {
	out := make(map[string]int)
	for _, s := range g.snapshotShards() {
		out[s.name] = g.WarmInstances(s.name)
	}
	return out
}

// lenderOf names the function whose warm list shrank since before.
func lenderOf(t *testing.T, g *Gateway, before map[string]int) string {
	t.Helper()
	lender := ""
	for name, n := range warmCounts(g) {
		if n < before[name] {
			if lender != "" {
				t.Fatalf("one lease took from both %s and %s", lender, name)
			}
			lender = name
		}
	}
	return lender
}

// settle waits until no prewarm boot is in flight.
func settle(t *testing.T, g *Gateway) {
	t.Helper()
	for _, s := range g.snapshotShards() {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			booting := s.ctl.booting
			s.mu.Unlock()
			if booting == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d prewarm boots never landed", s.name, booting)
			}
		}
	}
}

// A Go map hands each gateway its functions in a different order; no
// background decision may follow it. Twenty fresh gateways each: the
// renter always rents from the eligible shard whose oldest instance has
// been idle longest (classified lenders before neutrals, ties to the
// first name), the memory budget's tie always evicts from the first
// name, and two gateways fed one demand script through the cycle's
// stages log the same decisions.
func TestBackgroundDecisionsIgnoreMapOrder(t *testing.T) {
	t.Run("lender", func(t *testing.T) {
		// Idle ages chosen against name order; nb ties with na.
		idle := []struct {
			name   string
			age    time.Duration
			lender bool
		}{
			{"la", time.Second, true}, {"lb", 2 * time.Second, true},
			{"na", 9 * time.Second, false}, {"nb", 9 * time.Second, false}, {"nc", 5 * time.Second, false},
		}
		want := []string{"lb", "la", "na", "nb", "nc", ""}
		for run := 0; run < 20; run++ {
			g := New(testSharing())
			clk := newFakeClock()
			g.clock = clk
			if err := g.Register(echoFn("renter", 0)); err != nil {
				t.Fatal(err)
			}
			for _, f := range idle {
				if err := g.Register(echoFn(f.name, 0)); err != nil {
					t.Fatal(err)
				}
				park(t, g, f.name, clk.Now().Add(-f.age))
				if s := g.shard(f.name); f.lender {
					s.mu.Lock()
					for i := 0; i < 6; i++ {
						s.ctl.share.Observe(5, 0, 1) // persistently over-forecasted
					}
					role := s.ctl.share.Role()
					s.mu.Unlock()
					if role != sharing.RoleLender {
						t.Fatalf("setup: %s is %v, want a lender", f.name, role)
					}
				}
			}
			renter := g.shard("renter")
			var got []string
			for range want {
				before := warmCounts(g)
				inst, _, err := g.leaseInstance(context.Background(), renter, renter.fn)
				if err != nil {
					t.Fatal(err)
				}
				if inst != nil {
					inst.stop()
				}
				got = append(got, lenderOf(t, g, before))
			}
			g.Stop()
			if !slices.Equal(got, want) {
				t.Fatalf("gateway %d rented from %q, want %q: longest idle first, lenders before neutrals, ties by name", run, got, want)
			}
		}
	})

	t.Run("budget tie", func(t *testing.T) {
		for run := 0; run < 20; run++ {
			g := New(PoolConfig{MemoryBudget: 2 * instanceMemBytes})
			at := time.Now()
			for _, name := range []string{"c", "a", "b"} {
				if err := g.Register(echoFn(name, 0)); err != nil {
					t.Fatal(err)
				}
				park(t, g, name, at)
			}
			reclaimed := g.reclaimMemoryOnce()
			got := warmCounts(g)
			g.Stop()
			if reclaimed != 1 || got["a"] != 0 || got["b"] != 1 || got["c"] != 1 {
				t.Fatalf("gateway %d: reclaimed %d, left %v; want the one eviction to fall on a, the first name", run, reclaimed, got)
			}
		}
	})

	t.Run("demand script", func(t *testing.T) {
		first, second := runDemandScript(t), runDemandScript(t)
		if !slices.Equal(first, second) {
			t.Fatalf("the same script produced two decision logs:\n%s\n--- and ---\n%s",
				strings.Join(first, "\n"), strings.Join(second, "\n"))
		}
		log := strings.Join(first, "\n")
		for _, decision := range []string{"lender=f", "prewarmed=[1-9]", "retired=[1-9]", "expired=[1-9]", "reclaimed=[1-9]"} {
			if !regexp.MustCompile(decision).MatchString(log) {
				t.Errorf("the script never took a %q decision:\n%s", decision, log)
			}
		}
	})
}

// runDemandScript feeds a fresh gateway — sharing, predictor, keep-alive
// and memory budget armed — six functions' per-interval demands on the
// fake clock and returns every decision the cycle's stages took: per
// rented acquisition the lender, per tick and function the target and
// what is warm, per tick the prewarms and retirements so far, per
// janitor pass the expiries and budget evictions so far and what is left
// warm.
func runDemandScript(t *testing.T) []string {
	t.Helper()
	const tick = 10 * time.Second
	cfg := testSharing()
	cfg.NewPredictor = naiveFactory
	cfg.ControlInterval, cfg.ReapInterval = time.Hour, time.Hour
	cfg.IdleTTL = tick
	cfg.MemoryBudget = 5 * instanceMemBytes
	g := New(cfg)
	defer g.Stop()
	clk := newFakeClock()
	g.clock = clk
	for _, name := range []string{"f3", "f0", "f5", "f1", "f4", "f2"} {
		if err := g.Register(echoFn(name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	shards := g.snapshotShards()
	var log []string
	for i, demands := range [][6]int{
		{2, 0, 0, 1, 0, 0}, {0, 1, 0, 0, 2, 0}, {0, 0, 3, 0, 0, 1}, {1, 1, 1, 1, 1, 1},
		{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 4}, {0, 2, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0},
	} {
		clk.Advance(tick / 2)
		for j, s := range shards {
			held := make([]*instance, demands[j])
			for k := range held {
				before := warmCounts(g)
				inst, info, err := g.acquire(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				if held[k] = inst; info.mode == bootRented {
					log = append(log, fmt.Sprintf("t%d %s lender=%s", i, s.name, lenderOf(t, g, before)))
				}
			}
			for _, inst := range held {
				g.release(s, inst, true)
			}
		}

		now := clk.Advance(tick / 2)
		g.controlTick(now)
		settle(t, g)
		for _, s := range shards {
			target := g.reg.GaugeVec("hotc_ctl_target", "", "key").With(s.name).Value()
			log = append(log, fmt.Sprintf("t%d %s target=%v warm=%d", i, s.name, target, g.WarmInstances(s.name)))
		}
		st := g.Stats()
		log = append(log, fmt.Sprintf("t%d prewarmed=%d retired=%d", i, st.Prewarmed, st.Retired))

		g.janitorOnce(now)
		log = append(log, fmt.Sprintf("t%d expired=%d reclaimed=%d warm=%v", i,
			g.Stats().Expired, g.WarmMemory().Reclaimed, warmCounts(g)))
	}
	checkPool(t, g)
	return log
}

// Start adds two goroutines of the gateway's own, whatever it serves:
// the accept loop and the control cycle — with eight functions, a late
// deploy, the predictor and the keep-alive armed.
func TestOneBackgroundGoroutine(t *testing.T) {
	own := func() int { return stackCount("created by hotc/internal/faas/live.(*Gateway).") }
	g := New(PoolConfig{
		NewPredictor:    naiveFactory,
		ControlInterval: time.Hour, ReapInterval: time.Hour,
		IdleTTL: time.Minute,
	})
	for i := 0; i < 8; i++ {
		if err := g.Register(echoFn(fmt.Sprintf("f%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	before := own()
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if err := g.Register(echoFn("late", 0)); err != nil {
		t.Fatal(err)
	}
	if got := own() - before; got != 2 {
		t.Fatalf("Start and a late deploy added %d gateway goroutines, want 2 (accept loop + control cycle)", got)
	}
}

// hotc_ctl_ticks_total means what it means in the simulator: control
// intervals, not intervals × functions. Each tick also tops the generic
// pool up.
func TestCtlTicksCountCycles(t *testing.T) {
	g, clk, _ := startControlled(t, PoolConfig{NewPredictor: naiveFactory, Prefork: true, PreforkSize: 1},
		echoFn("a", 0), echoFn("b", 0), echoFn("c", 0))
	waitIdleGenerics(t, g, 1)
	g.cold.pool.TryAcquire().Stop() // a deficit no request will refill
	g.controlTick(clk.Advance(time.Second))
	waitIdleGenerics(t, g, 1)
	g.controlTick(clk.Advance(time.Second))
	var buf bytes.Buffer
	g.reg.WritePrometheus(&buf)
	m := regexp.MustCompile(`(?m)^hotc_ctl_ticks_total (\S+)$`).FindStringSubmatch(buf.String())
	if m == nil || m[1] != "2" {
		t.Fatalf("hotc_ctl_ticks_total after 2 cycles over 3 functions = %v, want 2", m)
	}
	for name, tr := range g.PredictionTraces() {
		if tr.Ticks != 2 {
			t.Errorf("%s ticked %d times in 2 cycles", name, tr.Ticks)
		}
	}
}
