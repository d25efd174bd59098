package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, cumulative
// `le` buckets with a +Inf terminator, and _sum/_count per histogram
// series. Histogram buckets that carry an exemplar render it in the
// OpenMetrics syntax (` # {trace_id="..."} value ts`), which
// Prometheus accepts when exemplar storage is on and every
// OpenMetrics-aware parser understands.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Snapshot())
}

// WritePrometheus renders a snapshot in the text exposition format.
func WritePrometheus(w io.Writer, fams []FamilySnapshot) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			switch f.Kind {
			case "histogram":
				cum := uint64(0)
				for i, b := range f.Bounds {
					cum += bucketCount(s.BucketCounts, i)
					fmt.Fprintf(bw, "%s_bucket%s %d%s\n",
						f.Name, labelString(f.Labels, s.LabelValues, "le", formatFloat(b)), cum,
						exemplarString(s.Exemplars, i))
				}
				cum += bucketCount(s.BucketCounts, len(f.Bounds))
				fmt.Fprintf(bw, "%s_bucket%s %d%s\n",
					f.Name, labelString(f.Labels, s.LabelValues, "le", "+Inf"), cum,
					exemplarString(s.Exemplars, len(f.Bounds)))
				fmt.Fprintf(bw, "%s_sum%s %s\n",
					f.Name, labelString(f.Labels, s.LabelValues, "", ""), formatFloat(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n",
					f.Name, labelString(f.Labels, s.LabelValues, "", ""), s.Count)
			default:
				fmt.Fprintf(bw, "%s%s %s\n",
					f.Name, labelString(f.Labels, s.LabelValues, "", ""), formatFloat(s.Value))
			}
		}
	}
	return bw.Flush()
}

// exemplarString renders bucket i's exemplar as an OpenMetrics
// suffix, or "" when the bucket has none.
func exemplarString(exemplars []BucketExemplar, i int) string {
	for _, ex := range exemplars {
		if ex.Bucket == i {
			return fmt.Sprintf(" # {trace_id=%q} %s %s",
				ex.TraceID, formatFloat(ex.Value),
				strconv.FormatFloat(float64(ex.TSUnixMs)/1000, 'f', 3, 64))
		}
	}
	return ""
}

func bucketCount(counts []uint64, i int) uint64 {
	if i < len(counts) {
		return counts[i]
	}
	return 0
}

// labelString renders {k="v",...}, optionally appending one extra
// pair (the `le` bound), or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		writeLabel(&b, n, v)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value's backslashes, double quotes and
// newlines, the three escapes the exposition format has: %q's \t, \xNN
// and \uNNNN are escapes no reader of the format accepts.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeLabel writes name="value", the value escaped and, since the
// format is UTF-8, with each invalid byte sequence made U+FFFD: a
// label value can be a client's header (a tenant) or a deploy's name.
func writeLabel(b *strings.Builder, name, value string) {
	b.WriteString(name)
	b.WriteString(`="`)
	labelEscaper.WriteString(b, strings.ToValidUTF8(value, "\uFFFD"))
	b.WriteByte('"')
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", "\\\\")
	return strings.ReplaceAll(h, "\n", "\\n")
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// metricLine is the JSONL wire shape of one metric series.
type metricLine struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	Bounds []float64         `json:"bounds,omitempty"`
	// BucketCounts are per-bucket (non-cumulative), last entry +Inf.
	BucketCounts []uint64 `json:"bucketCounts,omitempty"`
	// Exemplars are per-bucket representative traced observations.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// WriteJSONL dumps the registry one JSON object per series line, for
// offline analysis of sim and bench runs.
func (r *Registry) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, f := range r.Snapshot() {
		for _, s := range f.Series {
			line := metricLine{Name: f.Name, Kind: f.Kind, Value: s.Value,
				Count: s.Count, Sum: s.Sum}
			if len(f.Labels) > 0 {
				line.Labels = make(map[string]string, len(f.Labels))
				for i, n := range f.Labels {
					if i < len(s.LabelValues) {
						line.Labels[n] = s.LabelValues[i]
					}
				}
			}
			if f.Kind == "histogram" {
				line.Bounds = f.Bounds
				line.BucketCounts = s.BucketCounts
				line.Exemplars = s.Exemplars
			}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("obs: writing metrics JSONL: %w", err)
			}
		}
	}
	return nil
}
