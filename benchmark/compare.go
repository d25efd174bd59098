package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// bound is how far a metric may worsen from report A to report B
// before it counts as a regression.
type bound struct {
	rel float64 // share of A's value
	abs float64 // absolute, used when rel is 0 (A may be 0)
}

func (b bound) String() string {
	switch {
	case b.rel > 0:
		return fmt.Sprintf("%.0f%%", b.rel*100)
	case b.abs > 0:
		return fmt.Sprintf("abs %g", b.abs)
	default:
		return "no worse"
	}
}

// defaultBounds are the issue's regression bounds, sized from runs on
// the 2-core box; BENCHMARK.json overrides the ones it lists.
var defaultBounds = map[string]bound{
	"setup_s":         {rel: 0.10},
	"throughput_rps":  {rel: 0.10},
	"latency_p50_ms":  {rel: 0.10},
	"latency_p99_ms":  {rel: 0.15},
	"latency_mean_ms": {rel: 0.10},
	"cold_fraction":   {rel: 0.05},
	"error_fraction":  {}, // any increase
}

// boundFor applies the per-workload exceptions: cold_churn is paced, so
// its throughput barely moves; warm workloads have no cold starts to be
// relative to; the simulation's modelled outputs are exact.
func boundFor(bounds map[string]bound, workload, metric string) bound {
	b := bounds[metric]
	switch {
	case metric == "throughput_rps" && workload == "cold_churn":
		b.rel = math.Min(b.rel, 0.02)
	case metric == "cold_fraction" && strings.HasPrefix(workload, "warm_"):
		b = bound{abs: 0.001}
	case metric == "cold_fraction" && workload == "sim_campus":
		b = bound{}
	}
	return b
}

// loadBounds reads the end_to_end bounds of a BENCHMARK.json over the
// defaults. An empty path tries ./BENCHMARK.json then ../BENCHMARK.json
// and falls back to the defaults alone.
func loadBounds(path string) (map[string]bound, error) {
	out := make(map[string]bound, len(defaultBounds))
	for k, v := range defaultBounds {
		out[k] = v
	}
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			if path != "" {
				return nil, err
			}
			continue
		}
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, m := range spec.EndToEnd {
			out[m.Name] = bound{rel: m.Bound}
		}
		break
	}
	return out, nil
}

// verdict classifies one metric of one workload. worse is how much B
// is worse than A in the metric's own direction (negative = better),
// printed as a share of A under a relative bound and as a plain
// difference otherwise.
func verdict(a, b metric, bd bound) (worse, status string) {
	if a.Value == nil || b.Value == nil {
		return "", "n/a"
	}
	d := *b.Value - *a.Value
	if a.Better == "higher" {
		d = -d
	}
	if bd.rel == 0 {
		if d > bd.abs {
			return fmt.Sprintf("%+.4g", d), "regressed"
		}
		return fmt.Sprintf("%+.4g", d), "pass"
	}
	if *a.Value == 0 {
		return fmt.Sprintf("%+.4g", d), "n/a"
	}
	d /= math.Abs(*a.Value)
	worse = fmt.Sprintf("%+.2f%%", d*100)
	switch {
	case math.Max(a.Spread, b.Spread) > bd.rel:
		// A window whose own segments disagree by more than the bound
		// cannot resolve a difference of that size.
		return worse, "unresolved"
	case d > bd.rel:
		return worse, "regressed"
	}
	return worse, "pass"
}

// compareReports prints, per workload and end-to-end metric, both
// values, how much worse B is, the bound, and pass / regressed /
// unresolved. It reports whether anything regressed.
func compareReports(w io.Writer, pathA, pathB, boundsPath string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (seed %d)   B = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %9s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "status")
	for _, ra := range a.Untraced {
		var rb *workloadResult
		for _, r := range b.Untraced {
			if r.Name == ra.Name {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for i, ma := range ra.EndToEnd {
			mb := rb.EndToEnd[i]
			bd := boundFor(bounds, ra.Name, ma.Name)
			worse, status := verdict(ma, mb, bd)
			if status == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %9s  %s\n", ra.Name, ma.Name, show(ma), show(mb), worse, bd, status)
		}
		// Virtual-time outputs of one trace must not drift at all.
		if ra.Modelled != nil && rb.Modelled != nil && a.Seed == b.Seed && a.Smoke == b.Smoke {
			status := "pass"
			if *ra.Modelled != *rb.Modelled {
				status, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %9s  %s\n", ra.Name, "modelled outputs", "", "", "", "exact", status)
		}
	}
	return regressed, nil
}

func show(m metric) string {
	if m.Value == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g", *m.Value)
}
