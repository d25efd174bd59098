package obs

import (
	"sync"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestNameValidation(t *testing.T) {
	r := New()
	for _, bad := range []string{"", "requests_total", "hotc_Requests", "hotc_req-total", "hotc_req total", "HOTC_X",
		"hotc_", "hotc", "xhotc_a", "hotc_a1", "hotc_a`", "hotc_a{", "hotc_é"} {
		bad := bad
		mustPanic(t, "name "+bad, func() { r.Counter(bad, "") })
	}
	// Valid names register fine.
	r.Counter("hotc_requests_total", "requests")
	r.Gauge("hotc_pool_live", "live runtimes")
	r.Gauge("hotc__", "underscores only")
}

func TestCounterSemantics(t *testing.T) {
	r := New()
	c := r.Counter("hotc_requests_total", "")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %v, want 3.5", got)
	}
	mustPanic(t, "negative counter add", func() { c.Add(-1) })
}

func TestGaugeSemantics(t *testing.T) {
	r := New()
	g := r.Gauge("hotc_pool_live", "")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge value = %v, want 4", got)
	}
}

// TestHistogramBucketBoundaries pins the `le` (bound-inclusive)
// assignment rule: a value equal to a bound lands in that bound's
// bucket, a value above every bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("hotc_latency_ms", "", []float64{1, 2, 5})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // le="1" is inclusive
		{1.0001, 1}, {2, 1},
		{2.5, 2}, {5, 2},
		{5.0001, 3}, {100, 3}, // +Inf
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := make([]uint64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, w := range want {
		if got := h.s.counts[i].Load(); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	wantSum := 0.0
	for _, c := range cases {
		wantSum += c.v
	}
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := New()
	mustPanic(t, "non-increasing bounds", func() {
		r.Histogram("hotc_bad_ms", "", []float64{1, 1, 2})
	})
	mustPanic(t, "decreasing bounds", func() {
		r.Histogram("hotc_worse_ms", "", []float64{5, 2})
	})
}

// TestVecIdentity pins the labeled-family lookup contract: the same
// label values resolve to the same underlying series, different values
// to different series, and a wrong label-value count panics.
func TestVecIdentity(t *testing.T) {
	r := New()
	v := r.CounterVec("hotc_pool_hits_total", "", "key")
	v.With("py3").Inc()
	v.With("py3").Inc()
	v.With("node16").Inc()
	if got := v.With("py3").Value(); got != 2 {
		t.Errorf("py3 = %v, want 2", got)
	}
	if got := v.With("node16").Value(); got != 1 {
		t.Errorf("node16 = %v, want 1", got)
	}
	mustPanic(t, "label arity", func() { v.With("a", "b").Inc() })
	mustPanic(t, "no labels", func() { v.With().Inc() })
}

// TestGetOrCreate pins registration semantics: same shape returns the
// same family (state shared), conflicting shape panics.
func TestGetOrCreate(t *testing.T) {
	r := New()
	a := r.Counter("hotc_requests_total", "")
	b := r.Counter("hotc_requests_total", "")
	a.Inc()
	if got := b.Value(); got != 1 {
		t.Fatalf("re-registered counter sees %v, want 1 (shared state)", got)
	}
	mustPanic(t, "kind conflict", func() { r.Gauge("hotc_requests_total", "") })
	mustPanic(t, "label conflict", func() { r.CounterVec("hotc_requests_total", "", "key") })

	r.HistogramVec("hotc_lat_ms", "", []float64{1, 2}, "fn")
	mustPanic(t, "bounds conflict", func() { r.HistogramVec("hotc_lat_ms", "", []float64{1, 3}, "fn") })
}

// TestConcurrentAddSnapshot hammers one registry from many goroutines
// while snapshots are being taken; run under -race this is the
// registry's thread-safety proof.
func TestConcurrentAddSnapshot(t *testing.T) {
	r := New()
	cv := r.CounterVec("hotc_ops_total", "", "worker")
	hv := r.HistogramVec("hotc_op_ms", "", []float64{1, 10, 100}, "worker")
	g := r.Gauge("hotc_level", "")

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := string(rune('a' + id))
			for i := 0; i < iters; i++ {
				cv.With(name).Inc()
				hv.With(name).Observe(float64(i % 150))
				g.Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	for w := 0; w < workers; w++ {
		name := string(rune('a' + w))
		if got := cv.With(name).Value(); got != iters {
			t.Errorf("worker %s counter = %v, want %d", name, got, iters)
		}
		if got := hv.With(name).Count(); got != iters {
			t.Errorf("worker %s histogram count = %d, want %d", name, got, iters)
		}
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d families, want 3", len(snap))
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	if len(exp) != 4 || exp[3] != 8 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
	def := DefaultLatencyBucketsMS()
	for i := 1; i < len(def); i++ {
		if def[i] <= def[i-1] {
			t.Fatalf("default buckets not increasing at %d: %v", i, def)
		}
	}
	mustPanic(t, "exp factor<=1", func() { ExponentialBuckets(1, 1, 3) })
}
