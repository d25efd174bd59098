package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseExpositionAcceptsRegistryOutput(t *testing.T) {
	reg := New()
	reg.Counter("hotc_requests_total", "Requests.").Add(3)
	reg.GaugeVec("hotc_warm", "Warm instances.", "function").With("echo").Set(2)
	// A label value with every escape-worthy character.
	reg.GaugeVec("hotc_odd", "Odd labels.", "k").With("a\"b\\c\nd").Set(1)
	h := reg.Histogram("hotc_latency_ms", "Latency.", []float64{1, 5, 10})
	h.Observe(0.5)
	h.Observe(7)
	h.Observe(100)
	h.SetExemplar(7, "4bf92f3577b34da6a3ce929d0e0e4736", time.UnixMilli(1_700_000_000_123))

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseExposition rejects registry output: %v\n%s", err, buf.String())
	}
	if st.Families != 4 {
		t.Fatalf("Families = %d, want 4 (names %v)", st.Families, st.Names)
	}
	// counter + 2 gauges + 4 buckets + sum + count.
	if st.Samples != 9 {
		t.Fatalf("Samples = %d, want 9\n%s", st.Samples, buf.String())
	}
	if st.Exemplars != 1 {
		t.Fatalf("Exemplars = %d, want 1", st.Exemplars)
	}
}

func TestParseExpositionAcceptsHandwritten(t *testing.T) {
	// Legal-but-unusual constructs: comments, trailing-comma labels,
	// sample timestamps, special float values, future-proof ordering.
	const text = `# a freeform comment
# TYPE up gauge
up 1 1700000000000
# HELP temp Temperature.
# TYPE temp gauge
temp{site="lab",} -Inf
# TYPE h histogram
h_bucket{le="0.5"} 1 # {trace_id="abc"} 0.3 1700000000.123
h_bucket{le="+Inf"} 2
h_sum 2.5
h_count 2
`
	st, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if st.Families != 3 || st.Samples != 6 || st.Exemplars != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"sample without TYPE", "foo 1\n", "no preceding TYPE"},
		{"unknown TYPE kind", "# TYPE foo magic\n", "unknown TYPE"},
		{"duplicate TYPE", "# TYPE foo gauge\n# TYPE foo gauge\n", "duplicate TYPE"},
		{"duplicate HELP", "# HELP foo a\n# HELP foo b\n", "duplicate HELP"},
		{"duplicate sample", "# TYPE c counter\nc 1\nc 2\n", "duplicate sample"},
		{"counter with bucket sample", "# TYPE c counter\nc_bucket{le=\"1\"} 1\n", "cannot have _bucket samples"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n", "must be _bucket, _sum or _count"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\n", "without le"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "_count 3 != +Inf bucket 2"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "below previous"},
		{"+Inf below last bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "+Inf bucket 3 below"},
		{"exemplar on gauge", "# TYPE g gauge\ng 1 # {trace_id=\"x\"} 1\n", "exemplar on non-bucket"},
		{"exemplar on histogram count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1 # {trace_id=\"x\"} 1\n", "exemplar on non-bucket"},
		{"bad value", "# TYPE g gauge\ng pizza\n", "bad value"},
		{"fractional timestamp", "# TYPE g gauge\ng 1 1.5\n", "bad timestamp"},
		{"invalid metric name", "# TYPE g gauge\n1g 1\n", "invalid metric name"},
		{"invalid label name", "# TYPE g gauge\ng{le:x=\"1\"} 1\n", "invalid label"},
		{"duplicate label", "# TYPE g gauge\ng{a=\"1\",a=\"2\"} 1\n", "duplicate label"},
		{"bad escape", "# TYPE g gauge\ng{a=\"x\\q\"} 1\n", "invalid escape"},
		{"unterminated value", "# TYPE g gauge\ng{a=\"x} 1\n", "unterminated"},
		{"trailing garbage", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 junk\nh_sum 1\nh_count 1\n", "bad timestamp"},
	}
	for _, tc := range cases {
		_, err := ParseExposition(strings.NewReader(tc.text))
		if err == nil {
			t.Errorf("%s: accepted\n%s", tc.name, tc.text)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// A label value is whatever a client's header or a deploy names: the
// registry's exposition of any value parses, and reads back as that
// value with its invalid UTF-8 made U+FFFD.
func FuzzExposition(f *testing.F) {
	for _, v := range []string{"a\tb", "\xe9", `say "hi"`, `C:\dir`, "two\nlines"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		reg := New()
		reg.CounterVec("hotc_fuzz_total", "Fuzzed label.", "v").With(v).Inc()
		reg.HistogramVec("hotc_fuzz_ms", "Fuzzed label.", []float64{1}, "v").With(v).Observe(2)
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(strings.NewReader(buf.String())); err != nil {
			t.Fatalf("label value %q: %v\n%s", v, err, buf.String())
		}
		want := strings.ToValidUTF8(v, "\uFFFD")
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			p := &expoScanner{s: line}
			p.name()
			if labels, err := p.labels(); err != nil || labels["v"] != want {
				t.Fatalf("label value %q reads back as %q (%v) from %q", v, labels["v"], err, line)
			}
		}
	})
}
