package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	v := seq(100)
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestPercentileFloorNeedsTenBeyond(t *testing.T) {
	// 999 samples leave 9 beyond p99; 1000 leave exactly 10.
	if _, ok, reason := percentileFloor(seq(999), 0.99); ok || reason == "" {
		t.Errorf("p99 over 999 samples accepted (reason %q)", reason)
	}
	v, ok, _ := percentileFloor(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 over 1000 samples = %g, %v; want 990, true", v, ok)
	}
	// cold_churn's 600-request window cannot carry a p99 but can carry
	// a p95.
	if _, ok, _ := percentileFloor(seq(600), 0.99); ok {
		t.Error("p99 over 600 samples accepted")
	}
	if _, ok, _ := percentileFloor(seq(600), 0.95); !ok {
		t.Error("p95 over 600 samples refused")
	}
	if _, ok, _ := percentileFloor(nil, 0.99); ok {
		t.Error("p99 over no samples accepted")
	}
}

func TestMedianMeanSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q := quartiles([]float64{16, 1, 8, 2, 4}); q != [3]float64{1.5, 4, 12} {
		t.Errorf("quartiles = %v, want [1.5 4 12]", q)
	}
	// statistics.quantiles([9, 10, 11], n=4) == [9.0, 10.0, 11.0]
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %g, want 0.2", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := spread([]float64{1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of two = %g, want 1", got)
	}
	for _, v := range [][]float64{nil, {7}, {0, 0, 0}} {
		if got := spread(v); got != 0 {
			t.Errorf("spread(%v) = %g, want 0", v, got)
		}
	}
}

func TestSegmentThroughputEqualCounts(t *testing.T) {
	// Nine completions: three per second in the first second, then the
	// system stalls and finishes three per two seconds.
	done := []int64{3e8, 6e8, 1e9, 16e8, 22e8, 3e9, 36e8, 42e8, 5e9}
	got := segmentThroughput(done, 3)
	want := []float64{3, 1.5, 1.5}
	if len(got) != len(want) {
		t.Fatalf("segments = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("segment %d = %g req/s, want %g", i, got[i], want[i])
		}
	}
	if median(got) != 1.5 {
		t.Errorf("median of segments = %g, want 1.5", median(got))
	}
	if segmentThroughput(done[:2], 3) != nil {
		t.Error("fewer completions than segments must give no segments")
	}
}

func TestSegmentApplyCoversEverySample(t *testing.T) {
	sums := segmentApply(seq(10), 3, func(v []float64) float64 { return mean(v) * float64(len(v)) })
	total := 0.0
	for _, s := range sums {
		total += s
	}
	if len(sums) != 3 || total != 55 {
		t.Errorf("segment sums = %v (total %g), want 3 segments summing to 55", sums, total)
	}
}

func TestDueTimeLatencyChargesTheStall(t *testing.T) {
	p := newPacer(40)
	if p.due(0) != 0 || p.due(4) != 100e6 {
		t.Fatalf("40 req/s schedule: due(0)=%d due(4)=%d", p.due(0), p.due(4))
	}
	// Request 4 was due at 100 ms, but both connections were stuck
	// behind a boot until 130 ms; it then took 2 ms.
	lat, lag := dueLatency(p.due(4), 130e6, 132e6)
	if lat != 32e6 || lag != 30e6 {
		t.Errorf("latency %d lag %d, want 32ms from due time and 30ms of lag", lat, lag)
	}
}
