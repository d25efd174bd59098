package live

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchGateway drives the gateway hot path (handle → acquire → watchdog
// proxy → release, instrumented) with a fixed worker count spread over
// several functions, bypassing the outer HTTP listener so the numbers
// measure the gateway itself plus the real watchdog round-trip — the
// serialization the per-function sharding is meant to remove.
func benchGateway(b *testing.B, workers, fns int) {
	b.Helper()
	g := NewGateway(true)
	names := make([]string, fns)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		if err := g.Register(Function{
			Name:    names[i],
			Handler: func(body []byte) ([]byte, error) { return body, nil },
		}); err != nil {
			b.Fatal(err)
		}
	}
	defer g.Stop()

	// Prime one warm instance per function so the timed region measures
	// steady-state reuse, not cold boots.
	for _, name := range names {
		req := httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x"))
		rec := httptest.NewRecorder()
		g.handle(rec, req)
		if rec.Code != 200 {
			b.Fatalf("prime %s: status %d: %s", name, rec.Code, rec.Body)
		}
	}

	var next atomic.Int64
	var fail atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				name := names[i%int64(fns)]
				req := httptest.NewRequest("POST", "/function/"+name, strings.NewReader("x"))
				rec := httptest.NewRecorder()
				g.handle(rec, req)
				if rec.Code != 200 {
					fail.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if n := fail.Load(); n > 0 {
		b.Fatalf("%d requests failed", n)
	}
}

// benchGatewayHotPath drives the gateway's concurrency bookkeeping —
// breaker gate, acquire, release, demand accounting, stats deltas and
// metric observation — without the watchdog proxy hop. This isolates
// exactly the state transitions the per-function sharding
// de-serializes; the e2e variant above includes the real-socket round
// trip, which is syscall-bound and swamps lock effects on small hosts.
func benchGatewayHotPath(b *testing.B, workers, fns int) {
	b.Helper()
	g := NewGateway(true)
	shards := make([]*shard, fns)
	for i := range shards {
		name := fmt.Sprintf("f%d", i)
		if err := g.Register(Function{
			Name:    name,
			Handler: func(body []byte) ([]byte, error) { return body, nil },
		}); err != nil {
			b.Fatal(err)
		}
		shards[i] = g.shard(name)
	}
	defer g.Stop()

	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				s := shards[i%int64(fns)]
				start := time.Now()
				if ok, _ := g.breakerAllow(s); !ok {
					b.Error("breaker open")
					return
				}
				inst, boot, err := g.acquire(context.Background(), s)
				if err != nil {
					b.Error(err)
					return
				}
				g.release(s, inst, true)
				g.breakerSuccess(s)
				if boot.mode == bootWarm {
					g.obs.startsWarm.Inc()
				} else {
					g.obs.startsCold.Inc()
				}
				s.observe("ok", start)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGatewayParallel is the contention benchmark the sharding PR
// is judged on: M workers spread over N functions. The 8x4 shape is
// the acceptance configuration; 1x1 gives the uncontended floor for
// comparison. The e2e variants include the watchdog TCP round trip,
// the hotpath variants measure only the gateway's own bookkeeping.
func BenchmarkGatewayParallel(b *testing.B) {
	for _, cfg := range []struct{ workers, fns int }{
		{1, 1},
		{8, 4},
		{16, 4},
	} {
		b.Run(fmt.Sprintf("e2e_%dworkers_%dfns", cfg.workers, cfg.fns), func(b *testing.B) {
			benchGateway(b, cfg.workers, cfg.fns)
		})
	}
	for _, cfg := range []struct{ workers, fns int }{
		{1, 1},
		{8, 4},
	} {
		b.Run(fmt.Sprintf("hotpath_%dworkers_%dfns", cfg.workers, cfg.fns), func(b *testing.B) {
			benchGatewayHotPath(b, cfg.workers, cfg.fns)
		})
	}
}

// BenchmarkGatewayStatsUnderLoad measures Stats() while request traffic
// flows: the snapshot must not stop the world.
func BenchmarkGatewayStatsUnderLoad(b *testing.B) {
	g := NewGateway(true)
	if err := g.Register(Function{
		Name:    "f",
		Handler: func(body []byte) ([]byte, error) { return body, nil },
	}); err != nil {
		b.Fatal(err)
	}
	defer g.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("POST", "/function/f", strings.NewReader("x"))
				g.handle(httptest.NewRecorder(), req)
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Stats()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
