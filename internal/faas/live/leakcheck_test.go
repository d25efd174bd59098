package live

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain adds an opt-in goroutine-leak pass over the whole package:
// with HOTC_LEAKCHECK set (scripts/verify.sh does), the process fails
// if the goroutine count has not returned to near the pre-test
// baseline once every gateway is stopped. Leaked watchdogs — the
// release-after-Stop class of bug — hold their accept loop forever and
// trip this.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && os.Getenv("HOTC_LEAKCHECK") != "" {
		code = leakCheck(baseline)
	}
	os.Exit(code)
}

// Shard teardown must not strand goroutines: a gateway with many
// populated shards (warm instances, controller state, breaker
// state) is stopped and the goroutine count must fall back to its
// pre-gateway level. This checks locally what the TestMain pass checks
// package-wide, so a shard-lifecycle leak is pinned to this test
// instead of surfacing as an end-of-run failure.
func TestShardTeardownLeavesNoGoroutines(t *testing.T) {
	onBackends(t, shardTeardown)
}

func shardTeardown(t *testing.T, backend string) {
	before := runtime.NumGoroutine()
	g := New(PoolConfig{
		Backend:         backend,
		NewPredictor:    naiveFactory,
		ControlInterval: time.Hour, ReapInterval: time.Hour,
		IdleTTL: time.Minute,
	})
	for i := 0; i < 8; i++ {
		if err := g.Register(echoFn(fmt.Sprintf("f%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		post(t, base+fmt.Sprintf("/function/f%d", i), "x")
	}
	g.Stop()

	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections() // the test's own post() connections
	}
	deadline := time.Now().Add(5 * time.Second)
	const slack = 4
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("shard teardown leaked goroutines: %d alive, baseline %d (slack %d):\n%s",
				runtime.NumGoroutine(), before, slack, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func leakCheck(baseline int) int {
	// Idle keep-alive connections in the shared transport pin their
	// read loops; they are pool bookkeeping, not leaks.
	closeIdle := func() {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for {
		closeIdle()
		if runtime.NumGoroutine() <= baseline+slack {
			return 0
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(os.Stderr,
		"leakcheck: %d goroutines alive after all tests (baseline %d, slack %d):\n%s\n",
		runtime.NumGoroutine(), baseline, slack, buf[:n])
	return 1
}
