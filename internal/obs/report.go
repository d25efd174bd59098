package obs

import (
	"fmt"
	"slices"
	"strings"

	"hotc/internal/metrics"
)

// PhaseSummary is the distribution of one pipeline phase across a span
// log, in milliseconds.
type PhaseSummary struct {
	Phase string
	metrics.Summary
}

// Breakdown is the paper's latency-breakdown table computed from a span
// log: per-phase distributions over the successful requests, plus
// aggregate request/reuse/failure counts and event tallies.
type Breakdown struct {
	Spans        int
	OK           int
	Failed       int
	Reused       int
	Phases       []PhaseSummary
	EventsByKind map[string]int
}

// Summarize reduces a span log to its latency breakdown. Phase
// distributions cover successful spans only (a failed request never
// reaches the later timestamps); counts and events cover every span.
func Summarize(spans []Span) Breakdown {
	b := Breakdown{Spans: len(spans), EventsByKind: map[string]int{}}
	series := make(map[string]*metrics.Series, len(Phases()))
	for _, name := range Phases() {
		series[name] = &metrics.Series{}
	}
	for _, s := range spans {
		for _, ev := range s.Events {
			b.EventsByKind[ev.Kind]++
		}
		if s.Reused {
			b.Reused++
		}
		if !s.OK() {
			b.Failed++
			continue
		}
		b.OK++
		for _, name := range Phases() {
			series[name].AddDuration(s.Phase(name))
		}
	}
	for _, name := range Phases() {
		b.Phases = append(b.Phases, PhaseSummary{Phase: name, Summary: series[name].Summarize()})
	}
	return b
}

// Render formats the breakdown as the aligned text table reports print:
// one row per phase with mean and tail quantiles in milliseconds.
func (b Breakdown) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "spans: %d total, %d ok, %d failed, %d reused warm runtimes\n",
		b.Spans, b.OK, b.Failed, b.Reused)
	fmt.Fprintf(&sb, "%-8s %8s %9s %9s %9s %9s %9s\n",
		"phase", "count", "min ms", "mean ms", "p50 ms", "p99 ms", "max ms")
	for _, p := range b.Phases {
		fmt.Fprintf(&sb, "%-8s %8d %9.3f %9.3f %9.3f %9.3f %9.3f\n",
			p.Phase, p.Count, p.Min, p.Mean, p.P50, p.P99, p.Max)
	}
	if len(b.EventsByKind) > 0 {
		fmt.Fprintf(&sb, "events:\n")
		kinds := make([]string, 0, len(b.EventsByKind))
		for kind := range b.EventsByKind {
			kinds = append(kinds, kind)
		}
		slices.Sort(kinds)
		for _, kind := range kinds {
			fmt.Fprintf(&sb, "  %-16s %d\n", kind, b.EventsByKind[kind])
		}
	}
	return sb.String()
}
