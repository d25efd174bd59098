package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func sampleSpan(id int) Span {
	return Span{
		ID:          id,
		Function:    "resize",
		Key:         "py3|256mb",
		Reused:      id%2 == 0,
		ClientIn:    ms(100),
		GatewayIn:   ms(102),
		WatchdogIn:  ms(110),
		FuncStart:   ms(140),
		FuncDone:    ms(190),
		WatchdogOut: ms(191),
		ClientOut:   ms(195),
		Events: []SpanEvent{
			{At: ms(104), Kind: "acquire-retry", Detail: "attempt 1"},
		},
	}
}

func TestSpanPhases(t *testing.T) {
	s := sampleSpan(1)
	cases := map[string]time.Duration{
		"queue":   ms(2),
		"acquire": ms(8),
		"init":    ms(30),
		"exec":    ms(50),
		"respond": ms(5),
		"total":   ms(95),
	}
	for name, want := range cases {
		if got := s.Phase(name); got != want {
			t.Errorf("phase %s = %v, want %v", name, got, want)
		}
	}
	if s.Phase("bogus") != 0 {
		t.Error("unknown phase should be 0")
	}
	if !s.OK() {
		t.Error("span without Err should be OK")
	}
}

// TestSpanPhasesMissingStamps pins the zero-guard: a request that
// failed before reaching later moments reports 0 for those phases
// rather than a negative or bogus duration.
func TestSpanPhasesMissingStamps(t *testing.T) {
	s := Span{ClientIn: ms(100), GatewayIn: ms(105), Err: "acquire: boom"}
	if s.OK() {
		t.Error("span with Err should not be OK")
	}
	if got := s.Queue(); got != ms(5) {
		t.Errorf("queue = %v, want 5ms", got)
	}
	for _, name := range []string{"acquire", "init", "exec", "respond", "total"} {
		if got := s.Phase(name); got != 0 {
			t.Errorf("phase %s = %v, want 0 (missing stamps)", name, got)
		}
	}
}

// Regression: the first simulated request arrives at virtual time 0 —
// a zero ClientIn is a real stamp, not a missing one, and must not
// zero out the total.
func TestSpanPhasesAtTimeZero(t *testing.T) {
	s := Span{
		ClientIn: 0, GatewayIn: 0, WatchdogIn: ms(150),
		FuncStart: ms(500), FuncDone: ms(560),
		WatchdogOut: ms(562), ClientOut: ms(565),
	}
	if got := s.Total(); got != ms(565) {
		t.Errorf("total = %v, want 565ms", got)
	}
	if got := s.Acquire(); got != ms(150) {
		t.Errorf("acquire = %v, want 150ms", got)
	}
	if got := s.Queue(); got != 0 {
		t.Errorf("queue = %v, want 0", got)
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer()
	if tr.Len() != 0 {
		t.Fatal("fresh tracer should be empty")
	}
	id1, id2 := tr.NextID(), tr.NextID()
	if id1 == id2 {
		t.Fatalf("NextID returned duplicate %d", id1)
	}
	tr.Record(sampleSpan(id1))
	tr.Record(sampleSpan(id2))
	got := tr.Spans()
	if len(got) != 2 || got[0].ID != id1 || got[1].ID != id2 {
		t.Fatalf("spans = %+v", got)
	}
	// The returned slice is a copy.
	got[0].Function = "mutated"
	if tr.Spans()[0].Function != "resize" {
		t.Error("Spans() must return a copy")
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	in := []Span{sampleSpan(1), sampleSpan(2)}
	in[1].Err = "exec: crash"
	var buf bytes.Buffer
	if err := WriteSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("expected 2 lines, got %d", got)
	}
	out, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("read %d spans, want 2", len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		a.Events, b.Events = nil, nil
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("span %d mismatch:\n in=%+v\nout=%+v", i, a, b)
		}
		if len(in[i].Events) != len(out[i].Events) {
			t.Errorf("span %d events: %d vs %d", i, len(in[i].Events), len(out[i].Events))
			continue
		}
		for j := range in[i].Events {
			if in[i].Events[j] != out[i].Events[j] {
				t.Errorf("span %d event %d mismatch", i, j)
			}
		}
	}
}

func TestReadSpansBadInput(t *testing.T) {
	if _, err := ReadSpans(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("expected parse error")
	}
	spans, err := ReadSpans(strings.NewReader(""))
	if err != nil || len(spans) != 0 {
		t.Fatalf("empty input: spans=%v err=%v", spans, err)
	}
}

func TestSummarizeAndRender(t *testing.T) {
	spans := []Span{sampleSpan(1), sampleSpan(2), {
		ID: 3, Function: "resize", ClientIn: ms(200), GatewayIn: ms(201),
		Err:    "acquire: breaker open",
		Events: []SpanEvent{{At: ms(201), Kind: "breaker-open"}},
	}}
	b := Summarize(spans)
	if b.Spans != 3 || b.OK != 2 || b.Failed != 1 || b.Reused != 1 {
		t.Fatalf("breakdown counts = %+v", b)
	}
	if b.EventsByKind["acquire-retry"] != 2 || b.EventsByKind["breaker-open"] != 1 {
		t.Fatalf("events = %v", b.EventsByKind)
	}
	var exec PhaseSummary
	for _, p := range b.Phases {
		if p.Phase == "exec" {
			exec = p
		}
	}
	if exec.Count != 2 || exec.Mean != 50 {
		t.Fatalf("exec summary = %+v", exec)
	}

	out := b.Render()
	for _, w := range []string{"3 total", "2 ok", "1 failed", "exec", "acquire-retry", "breaker-open"} {
		if !strings.Contains(out, w) {
			t.Errorf("render missing %q:\n%s", w, out)
		}
	}
}
