package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

const (
	measured = "measured" // real sockets, real CPU
	modelled = "modelled" // the cost model's time.Sleep, or virtual time
)

// metric is one reported number. Value is null, with Reason, when the
// sample cannot support it (a p99 over too few requests) or the
// workload bypasses the layer.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Kind   string   `json:"kind"`
	Value  *float64 `json:"value"`
	Reason string   `json:"reason,omitempty"`
	// N is the number of samples behind Value; Spread is the
	// interquartile distance over the median of Value across the
	// window's segments (or a direct timing's batches).
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// metricDef fixes a metric's name, unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a user of the system sees. Later issues cite
// these names.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"latency_mean_ms", "ms", "lower"},
	{"cold_fraction", "ratio", "lower"},
	{"error_fraction", "ratio", "lower"},
}

// perLayerDefs are the 68 single-layer metrics of the traced pass, as
// <module>.<metric>.
var perLayerDefs = []metricDef{
	{"live.watchdog_rtt_us", "us", "lower"},
	{"live.gateway_overhead_us", "us", "lower"},
	{"live.phase_queue_us", "us", "lower"},
	{"live.phase_acquire_us", "us", "lower"},
	{"live.phase_init_us", "us", "lower"},
	{"live.phase_exec_us", "us", "lower"},
	{"live.phase_respond_us", "us", "lower"},
	{"live.tracing_overhead_us", "us", "lower"},
	{"live.requests", "count", "higher"},
	{"live.reused", "count", "higher"},
	{"live.cold_starts", "count", "lower"},
	{"live.prewarmed", "count", "lower"},
	{"live.expired", "count", "lower"},
	{"live.retired", "count", "lower"},
	{"live.canceled", "count", "lower"},
	{"live.reuse_ratio", "ratio", "higher"},
	{"live.boot_failures", "count", "lower"},
	{"live.proxy_failures", "count", "lower"},
	{"live.fullcold_fraction", "ratio", "lower"},
	{"live.fullcold_p50_ms", "ms", "lower"},
	{"router.hop_us", "us", "lower"},
	{"router.ring_owner_ns", "ns", "lower"},
	{"router.ring_ordered_ns", "ns", "lower"},
	{"router.attempts_mean", "count", "lower"},
	{"router.node_share_max", "ratio", "lower"},
	{"router.spills", "count", "lower"},
	{"admission.admit_ns", "ns", "lower"},
	{"admission.admit_allocs", "count", "lower"},
	{"admission.queued", "count", "lower"},
	{"admission.rejected", "count", "lower"},
	{"prefork.start_us", "us", "lower"},
	{"prefork.specialize_ns", "ns", "lower"},
	{"prefork.try_acquire_ns", "ns", "lower"},
	{"prefork.refill_boots", "count", "lower"},
	{"prefork.generic_idle_end", "count", "higher"},
	{"prefork.generic_fraction", "ratio", "lower"},
	{"prefork.generic_p50_ms", "ms", "lower"},
	{"prefork.pool_hit_ratio", "ratio", "higher"},
	{"sharing.leases_granted", "count", "higher"},
	{"sharing.leases_no_candidate", "count", "lower"},
	{"sharing.leases_denied", "count", "lower"},
	{"sharing.grant_ratio", "ratio", "higher"},
	{"sharing.rented_fraction", "ratio", "higher"},
	{"sharing.rented_p50_ms", "ms", "lower"},
	{"sharing.classifier_observe_ns", "ns", "lower"},
	{"sharing.policy_compatible_ns", "ns", "lower"},
	{"image.admit_hit_ns", "ns", "lower"},
	{"image.admit_miss_ns", "ns", "lower"},
	{"image.pull_skipped_mb", "MB", "higher"},
	{"predictor.step_ns", "ns", "lower"},
	{"pool.acquire_release_ns", "ns", "lower"},
	{"pool.hit_ratio", "ratio", "higher"},
	{"core.replay_ns_per_req", "ns", "lower"},
	{"simclock.events_per_s", "1/s", "higher"},
	{"trace.campus_gen_ms", "ms", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"obs.traceparent_parse_ns", "ns", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"client.generator_lag_p99_ms", "ms", "lower"},
	{"client.generator_lag_max_ms", "ms", "lower"},
	{"client.latency_p999_ms", "ms", "lower"},
	{"proc.cpu_us_per_req", "us", "lower"},
	{"proc.allocs_per_req", "count", "lower"},
	{"proc.bytes_per_req", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.rss_peak_mb", "MB", "lower"},
	{"proc.goroutines_end", "count", "lower"},
}

// metricSet collects values for a fixed list of defs; anything never
// set prints as null with a reason.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

func (s *metricSet) def(name string) metricDef {
	for _, d := range s.defs {
		if d.name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not declared") // a typo in this package, not an input
}

// set records a value with its sample count and the repeated values
// its spread is taken over.
func (s *metricSet) set(name, kind string, v float64, n int, over []float64) {
	d := s.def(name)
	s.m[name] = metric{Name: d.name, Unit: d.unit, Better: d.better, Kind: kind, Value: &v, N: n, Spread: spread(over)}
}

// note attaches a caveat to a value already set.
func (s *metricSet) note(name, reason string) {
	m := s.m[name]
	m.Reason = reason
	s.m[name] = m
}

// refuse records why a metric has no value.
func (s *metricSet) refuse(name, kind, reason string) {
	d := s.def(name)
	s.m[name] = metric{Name: d.name, Unit: d.unit, Better: d.better, Kind: kind, Reason: reason}
}

func (s *metricSet) list(missing string) []metric {
	out := make([]metric, 0, len(s.defs))
	for _, d := range s.defs {
		m, ok := s.m[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit, Better: d.better, Kind: measured, Reason: missing}
		}
		out = append(out, m)
	}
	return out
}

// workloadResult is one workload's section of the report.
type workloadResult struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	WindowS   float64        `json:"window_s"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Modes     map[string]int `json:"boot_modes,omitempty"`
	// Checks lists every failed output verification.
	Checks   []string `json:"failed_checks,omitempty"`
	EndToEnd []metric `json:"end_to_end"`
	// Modelled holds sim_campus's virtual-time outputs, which must
	// repeat bit for bit for one seed.
	Modelled *simOutputs `json:"modelled,omitempty"`
	// PerLayer is filled by the traced pass only.
	PerLayer []metric `json:"per_layer,omitempty"`
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && len(r.Checks) == 0 }

// report is the whole run, the file -out writes and -compare reads.
type report struct {
	Schema     string            `json:"schema"`
	Seed       int64             `json:"seed"`
	Smoke      bool              `json:"smoke"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Clients    int               `json:"clients"`
	Untraced   []*workloadResult `json:"untraced,omitempty"`
	Traced     []*workloadResult `json:"traced,omitempty"`
	Spans      []spanSummary     `json:"spans,omitempty"`
	SpansLost  uint64            `json:"spans_dropped,omitempty"`
}

func newReport(seed int64, smoke bool) *report {
	return &report{
		Schema: "hotc-benchmark/1", Seed: seed, Smoke: smoke,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
	}
}

func (r *report) correct() bool {
	for _, set := range [][]*workloadResult{r.Untraced, r.Traced} {
		for _, w := range set {
			if !w.correct() {
				return false
			}
		}
	}
	return true
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printMetrics writes one aligned line per metric: name, value, unit,
// direction, kind, n and spread.
func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, m := range ms {
		val := "null"
		if m.Value != nil {
			val = fmt.Sprintf("%.6g", *m.Value)
		}
		line := fmt.Sprintf("    %-30s %14s %-6s %-6s %-8s n=%-8d spread=%.3f", m.Name, val, m.Unit, m.Better, m.Kind, m.N, m.Spread)
		if m.Reason != "" {
			line += "  (" + m.Reason + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func printWorkload(w io.Writer, pass string, r *workloadResult) {
	fmt.Fprintf(w, "%s [%s] window=%.2fs attempted=%d failed=%d", r.Name, pass, r.WindowS, r.Attempted, r.Failed)
	if len(r.Modes) > 0 {
		fmt.Fprintf(w, " modes=%v", r.Modes)
	}
	fmt.Fprintln(w)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", c)
	}
	printMetrics(w, "end to end", r.EndToEnd)
	if r.Modelled != nil {
		out, _ := json.Marshal(r.Modelled) // plain numbers cannot fail to marshal
		fmt.Fprintf(w, "  modelled outputs %s\n", out)
	}
	if len(r.PerLayer) > 0 {
		printMetrics(w, "per layer", r.PerLayer)
	}
}

// driverMetrics are the end-to-end metrics BENCHMARK.json gates on:
// the ones that are a non-zero measured number on every workload.
// latency_p99_ms (refused under 1000 samples), cold_fraction and
// error_fraction (0 by design on most workloads) stay in the full
// report; the last two also ride in the driver's per-layer list.
var driverMetrics = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_mean_ms"}

// driverExtras are end-to-end metrics printed with the per-layer ones
// on a traced driver run.
var driverExtras = []string{"cold_fraction", "error_fraction"}

// driverLine is the result object the benchmark contract asks for as
// the last line of standard output.
func driverLine(r *workloadResult, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	pick := func(ms []metric, names []string) error {
		for _, m := range ms {
			if names != nil && !slices.Contains(names, m.Name) {
				continue
			}
			v := 0.0 // a bypassed layer did no work
			if m.Value != nil {
				v = *m.Value
			} else if !traced {
				return fmt.Errorf("end-to-end metric %s has no value: %s", m.Name, m.Reason)
			}
			metrics[m.Name] = value{v, m.Unit}
		}
		return nil
	}
	var err error
	if traced {
		if err = pick(r.PerLayer, nil); err == nil {
			err = pick(r.EndToEnd, driverExtras)
		}
	} else {
		err = pick(r.EndToEnd, driverMetrics)
	}
	if err != nil {
		return "", err
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	return string(out), err
}
