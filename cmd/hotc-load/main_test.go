package main

import (
	"math"
	"testing"
	"time"

	"hotc/internal/faas/live"
)

// One short open-loop run against a real daemon on a loopback socket:
// the report's counters must agree with each other and the tenant split
// must follow the shares exactly.
func TestRunReportIsConsistent(t *testing.T) {
	d := live.New(live.PoolConfig{})
	base, err := d.StartOn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	names := []string{"sleep-0", "sleep-1"}
	for _, n := range names {
		deploy(base, n, "sleep", 5, "")
	}
	weights, err := parseWeights("3,1", len(names))
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := parseTenants("burst:3,steady:1")
	if err != nil {
		t.Fatal(err)
	}

	res := run(base, names, weights, "1", tenants, 50, 300*time.Millisecond, 0, 64)

	if res.Sent != 15 || res.ClientDrops != 0 {
		t.Fatalf("sent %d, dropped %d; want the 15 arrivals of 300ms at 50/s, none dropped", res.Sent, res.ClientDrops)
	}
	var answered int64
	for _, n := range res.Status {
		answered += n
	}
	ok := res.Status["200"]
	if answered != res.Sent || ok != res.Sent || res.OKFraction != 1 {
		t.Fatalf("status %v, ok_fraction %v; want %d answers, all 200", res.Status, res.OKFraction, res.Sent)
	}
	if res.ColdStarts+res.WarmHits != ok {
		t.Errorf("cold_starts %d + warm_hits %d != %d served", res.ColdStarts, res.WarmHits, ok)
	}
	if res.ColdStarts < int64(len(names)) {
		t.Errorf("cold_starts %d; each of the %d fresh functions boots at least once", res.ColdStarts, len(names))
	}
	var modes int64
	for _, n := range res.BootModes {
		modes += n
	}
	if modes != ok || res.BootModes["warm"] != res.WarmHits {
		t.Errorf("boot_modes %v; want %d in total with %d warm", res.BootModes, ok, res.WarmHits)
	}
	// Arrival i belongs to tenant cycle[i%4], cycle = burst ×3, steady ×1.
	want := map[string]int64{}
	for i := int64(0); i < res.Sent; i++ {
		if i%4 < 3 {
			want["burst"]++
		} else {
			want["steady"]++
		}
	}
	for name, n := range want {
		ts := res.Tenants[name]
		if ts == nil || ts.Sent != n || ts.OK != n {
			t.Errorf("tenant %s: %+v, want sent = ok = %d", name, ts, n)
		}
	}
}

// The report's percentiles are metrics.Series's: interpolated between
// the closest ranks, not the nearest rank below, which on a short run
// reads a whole sample low.
func TestPercentilesInterpolate(t *testing.T) {
	got := percentiles([]float64{4, 1, 3, 2})
	want := map[string]float64{"p50": 2.5, "p90": 3.7, "p99": 3.97, "max": 4}
	for k, w := range want {
		if math.Abs(got[k]-w) > 0.011 { // the report cuts to two decimals
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if got := percentiles(nil); len(got) != 0 {
		t.Errorf("percentiles of nothing = %v, want no keys", got)
	}
}

func TestParseWeights(t *testing.T) {
	if w, err := parseWeights("", 3); w != nil || err != nil {
		t.Errorf(`"" = %v, %v; want uniform (nil)`, w, err)
	}
	if w, err := parseWeights("8, 1", 2); err != nil || len(w) != 2 || w[0] != 8 || w[1] != 1 {
		t.Errorf(`"8, 1" = %v, %v`, w, err)
	}
	for _, bad := range []string{"1,2", "1,2,x", "0,1,1", "-1,1,1", "1,,1"} {
		if w, err := parseWeights(bad, 3); err == nil {
			t.Errorf("%q for 3 functions accepted as %v", bad, w)
		}
	}
}

func TestParseTenants(t *testing.T) {
	if ts, err := parseTenants(""); ts != nil || err != nil {
		t.Errorf(`"" = %v, %v; want no tenants`, ts, err)
	}
	ts, err := parseTenants("burst:3, steady")
	if err != nil || len(ts) != 2 || ts[0] != (tenantShare{"burst", 3}) || ts[1] != (tenantShare{"steady", 1}) {
		t.Errorf(`"burst:3, steady" = %v, %v`, ts, err)
	}
	for _, bad := range []string{"a:0", "a:-1", "a:x", ":3", "a:1,,b:1"} {
		if ts, err := parseTenants(bad); err == nil {
			t.Errorf("%q accepted as %v", bad, ts)
		}
	}
}
