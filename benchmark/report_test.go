package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func TestTraceparentIsWellFormed(t *testing.T) {
	got := traceparent(0x0100000000000001, 7)
	want := "00-00000000000000000100000000000001-0000000000000007-01"
	if got != want {
		t.Errorf("traceparent = %q, want %q", got, want)
	}
}

func TestDriverLineCarriesContractKeys(t *testing.T) {
	e2e := newMetricSet(endToEndDefs)
	for _, name := range driverMetrics {
		e2e.set(name, measured, 1.5, 10, nil)
	}
	e2e.refuse("latency_p99_ms", measured, "too few samples")
	res := &workloadResult{Name: "warm_small", Attempted: 10, EndToEnd: e2e.list("not measured")}
	line, err := driverLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || !*got.Correct || got.Failed == nil || got.Attempted != 10 {
		t.Errorf("result object %s lacks correct/attempted/failed", line)
	}
	if len(got.Metrics) != len(driverMetrics) || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("untraced line metrics = %v, want exactly %v", got.Metrics, driverMetrics)
	}

	// A gated metric without a value must fail the run, not print 0.
	e2e.refuse("latency_p50_ms", measured, "no samples")
	res.EndToEnd = e2e.list("not measured")
	if _, err := driverLine(res, false); err == nil {
		t.Error("driver line accepted a gated metric with no value")
	}
}

// BENCHMARK.json and the harness must name the same things.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	defs := make(map[string]metricDef)
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		defs[d.name] = d
	}
	var gated []string
	for _, m := range spec.EndToEnd {
		gated = append(gated, m.Name)
		if d := defs[m.Name]; d.unit != m.Unit || d.better != m.Better {
			t.Errorf("end_to_end %s: BENCHMARK.json says %s/%s, harness %s/%s", m.Name, m.Unit, m.Better, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(gated) != len(driverMetrics) {
		t.Errorf("BENCHMARK.json gates %v, the driver line prints %v", gated, driverMetrics)
	}
	for _, name := range driverMetrics {
		if !slices.Contains(gated, name) {
			t.Errorf("driver metric %s is not in BENCHMARK.json's end_to_end", name)
		}
	}
	want := len(perLayerDefs) + len(driverExtras)
	if len(spec.PerLayer) != want {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced driver line prints %d", len(spec.PerLayer), want)
	}
	for _, m := range spec.PerLayer {
		if d, ok := defs[m.Name]; !ok || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per_layer %s: BENCHMARK.json says %s/%s, harness %+v", m.Name, m.Unit, m.Better, d)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, spread float64, better string) metric {
		return metric{Value: &v, Spread: spread, Better: better}
	}
	rel := bound{rel: 0.10}
	for _, c := range []struct {
		name string
		a, b metric
		bd   bound
		want string
	}{
		{"latency up 5%", m(1, 0.02, "lower"), m(1.05, 0.02, "lower"), rel, "pass"},
		{"latency up 20%", m(1, 0.02, "lower"), m(1.2, 0.02, "lower"), rel, "regressed"},
		{"throughput down 20%", m(100, 0.02, "higher"), m(80, 0.02, "higher"), rel, "regressed"},
		{"throughput up 20%", m(100, 0.02, "higher"), m(120, 0.02, "higher"), rel, "pass"},
		{"segments disagree by more than the bound", m(1, 0.3, "lower"), m(1.2, 0.02, "lower"), rel, "unresolved"},
		{"cold fraction from 0 within absolute bound", m(0, 0, "lower"), m(0.0005, 0, "lower"), bound{abs: 0.001}, "pass"},
		{"any error is a regression", m(0, 0, "lower"), m(0.001, 0, "lower"), bound{}, "regressed"},
		{"refused percentile", metric{Better: "lower"}, m(1, 0, "lower"), rel, "n/a"},
	} {
		if _, got := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if b := boundFor(map[string]bound{"throughput_rps": {rel: 0.25}}, "cold_churn", "throughput_rps"); b.rel != 0.02 {
		t.Errorf("cold_churn throughput bound = %v, want 2%%", b)
	}
}
