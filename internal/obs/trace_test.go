package obs

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	g := NewIDGen(42)
	tc := TraceContext{TraceID: g.NewTraceID(), SpanID: g.NewSpanID(), Flags: 1}
	hdr := tc.Traceparent()
	if len(hdr) != traceparentLen || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("Traceparent() = %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != tc {
		t.Fatalf("round trip = %+v, %v; want %+v", got, ok, tc)
	}
	if got.TraceIDString() != hdr[3:35] || got.SpanIDString() != hdr[36:52] {
		t.Fatalf("ID strings %q/%q disagree with header %q",
			got.TraceIDString(), got.SpanIDString(), hdr)
	}
}

// validTraceparent is the W3C specification's example header.
const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// traceparentAccept and traceparentReject are the parser's strictness
// table; FuzzParseTraceparent seeds from both.
var (
	traceparentAccept = []string{
		validTraceparent,
		// Future versions must parse as long as the 00 layout holds,
		// including ones extended with new dash-separated fields.
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extrafield",
	}
	traceparentReject = []string{
		"",
		validTraceparent[:54],             // truncated
		validTraceparent + "x",            // extension without separator
		validTraceparent + "-extrafield",  // version 00 has no extension
		strings.ToUpper(validTraceparent), // uppercase hex is invalid per spec
		"ff" + validTraceparent[2:],       // version ff reserved
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",  // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
	}
)

func TestParseTraceparentStrictness(t *testing.T) {
	for _, s := range traceparentAccept {
		if _, ok := ParseTraceparent(s); !ok {
			t.Errorf("ParseTraceparent(%q) rejected, want accepted", s)
		}
	}
	for _, s := range traceparentReject {
		if tc, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) = %+v, want rejected", s, tc)
		}
	}
}

// A header that parses renders back as its version-00 form (the first
// 55 characters with the version reset) and re-parses to the same
// context; one that does not parse yields the zero context.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range append(slices.Clone(traceparentAccept), traceparentReject...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected with %+v, want the zero context", s, tc)
			}
			return
		}
		hdr := tc.Traceparent()
		if want := "00" + s[2:traceparentLen]; hdr != want {
			t.Fatalf("ParseTraceparent(%q).Traceparent() = %q, want %q", s, hdr, want)
		}
		if again, ok := ParseTraceparent(hdr); !ok || again != tc {
			t.Fatalf("%q re-parses to %+v, %v; want %+v", hdr, again, ok, tc)
		}
	})
}

func TestIDGenDeterministicAndDistinct(t *testing.T) {
	a, b := NewIDGen(7), NewIDGen(7)
	other := NewIDGen(8)
	for i := 0; i < 100; i++ {
		ida, idb := a.NewTraceID(), b.NewTraceID()
		if ida != idb {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if ida == ([16]byte{}) {
			t.Fatalf("all-zero trace ID at draw %d", i)
		}
		if ida == other.NewTraceID() {
			t.Fatalf("different seeds collided at draw %d", i)
		}
	}
	if NewIDGen(3).NewSpanID() == ([8]byte{}) {
		t.Fatal("all-zero span ID")
	}
}

func TestTailSamplerKeepRules(t *testing.T) {
	// Sampler with the slow rule armed and the probabilistic baseline
	// off: only the always-keep classes survive.
	s := NewTailSampler(SamplerConfig{SlowThreshold: 500 * time.Millisecond})
	slowSpan := Span{Status: 200, Reused: true, ClientOut: 600 * time.Millisecond}
	cases := []struct {
		name string
		span Span
		want string
	}{
		{"queue-full 429", Span{Status: 429, Reused: true}, KeepShed},
		{"breaker 503", Span{Status: 503, Reused: true}, KeepShed},
		{"deadline 504", Span{Status: 504, Reused: true}, KeepShed},
		{"server error", Span{Status: 500, Reused: true}, KeepError},
		{"client error", Span{Status: 413, Reused: true}, KeepError},
		{"recorded error", Span{Status: 200, Err: "x", Reused: true}, KeepError},
		{"cold start", Span{Status: 200, Reused: false}, KeepCold},
		{"slow tail", slowSpan, KeepSlow},
		// Priority: an earlier rule wins even when later ones also match.
		{"shed beats error", Span{Status: 503, Err: "boom"}, KeepShed},
		{"error beats cold", Span{Status: 500, Reused: false}, KeepError},
		{"cold beats slow", Span{Status: 200, Reused: false, ClientOut: 600 * time.Millisecond}, KeepCold},
	}
	for _, tc := range cases {
		reason, keep := s.Decide(&tc.span)
		if !keep || reason != tc.want {
			t.Errorf("%s: Decide = %q, %v; want %q, true", tc.name, reason, keep, tc.want)
		}
	}
	// An unremarkable warm success is dropped at rate 0...
	fast := Span{Status: 200, Reused: true, ClientOut: time.Millisecond}
	if reason, keep := s.Decide(&fast); keep {
		t.Fatalf("rate-0 sampler kept unremarkable span as %q", reason)
	}
	// ...and kept at rate 1.
	always := NewTailSampler(SamplerConfig{SampleRate: 1})
	if reason, keep := always.Decide(&fast); !keep || reason != KeepSampled {
		t.Fatalf("rate-1 sampler: Decide = %q, %v", reason, keep)
	}
}

func TestTailSamplerRateIsProbabilistic(t *testing.T) {
	s := NewTailSampler(SamplerConfig{SampleRate: 0.5})
	span := Span{Status: 200, Reused: true, ClientOut: time.Millisecond}
	kept := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if _, keep := s.Decide(&span); keep {
			kept++
		}
	}
	if kept < 4500 || kept > 5500 {
		t.Fatalf("rate-0.5 sampler kept %d/%d", kept, n)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(4)
	for i := 1; i <= 10; i++ {
		sp := Span{ID: i}
		if !r.Put(&sp, []SpanEvent{{Kind: "e", At: time.Duration(i)}}) {
			t.Fatalf("uncontended Put %d dropped", i)
		}
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want capacity 4", len(got))
	}
	for i, want := range []int{10, 9, 8, 7} {
		if got[i].ID != want {
			t.Fatalf("Snapshot[%d].ID = %d, want %d (newest first)", i, got[i].ID, want)
		}
		if len(got[i].Events) != 1 || got[i].Events[0].At != time.Duration(want) {
			t.Fatalf("Snapshot[%d] events = %+v, want the span's own", i, got[i].Events)
		}
	}
	if r.Written() != 10 || r.Contended() != 0 {
		t.Fatalf("Written/Contended = %d/%d, want 10/0", r.Written(), r.Contended())
	}
}

func TestTraceRingCopiesEvents(t *testing.T) {
	r := NewTraceRing(1)
	scratch := [2]SpanEvent{{Kind: "retry", Detail: "original"}}
	sp := Span{ID: 1}
	r.Put(&sp, scratch[:1])
	// The caller reuses its scratch array; the ring must have copied.
	scratch[0].Detail = "clobbered"
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Events) != 1 || snap[0].Events[0].Detail != "original" {
		t.Fatalf("slot aliases caller scratch: %+v", snap)
	}
	// And the snapshot is immune to the slot being overwritten after.
	next := Span{ID: 2}
	r.Put(&next, []SpanEvent{{Kind: "other"}})
	if snap[0].ID != 1 || snap[0].Events[0].Kind != "retry" {
		t.Fatalf("snapshot mutated by later Put: %+v", snap[0])
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8)
	const writers, per = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader churns snapshots against the writers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, sp := range r.Snapshot() {
					if sp.ID == 0 {
						t.Error("snapshot surfaced an unfilled span")
						return
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := [1]SpanEvent{{Kind: "k"}}
			for i := 0; i < per; i++ {
				sp := Span{ID: w*per + i + 1}
				r.Put(&sp, ev[:])
			}
		}(w)
	}
	// Stop the reader once every writer has drained its puts.
	for r.seq.Load() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := r.Written() + r.Contended(); got != writers*per {
		t.Fatalf("Written+Contended = %d, want %d", got, writers*per)
	}
	if len(r.Snapshot()) > 8 {
		t.Fatalf("snapshot exceeds capacity: %d", len(r.Snapshot()))
	}
}

// sloAt builds a monitor on a settable fake clock.
func sloAt(cfg SLOConfig) (*SLOMonitor, *time.Time) {
	now := time.Unix(1_000_000, 0)
	cfg.Now = func() time.Time { return now }
	return NewSLOMonitor(cfg), &now
}

func sloObjective(t *testing.T, rep SLOReport, name string) SLOObjective {
	t.Helper()
	for _, obj := range rep.Objectives {
		if obj.Name == name {
			return obj
		}
	}
	t.Fatalf("report has no %q objective: %+v", name, rep.Objectives)
	return SLOObjective{}
}

func TestSLOLatencyBurnAndRecovery(t *testing.T) {
	m, now := sloAt(SLOConfig{LatencyThreshold: 100 * time.Millisecond})
	// 50 fast successes: no burn.
	for i := 0; i < 50; i++ {
		m.Record(200, true, false, 10*time.Millisecond)
	}
	obj := sloObjective(t, m.Report(), SLOLatency)
	if math.Abs(obj.Budget-0.01) > 1e-9 {
		t.Fatalf("latency budget = %v, want 0.01 (default 0.99 objective)", obj.Budget)
	}
	if len(obj.Windows) != 3 || obj.Windows[0].Seconds != 60 || obj.Windows[1].Seconds != 300 || obj.Windows[2].Seconds != 1800 {
		t.Fatalf("windows = %+v, want 1m, 5m and 30m", obj.Windows)
	}
	if obj.Breach || obj.Windows[0].Bad != 0 || obj.Windows[0].Total != 50 {
		t.Fatalf("healthy report = %+v", obj)
	}

	// 50 slow successes two seconds later: half the window is bad, the
	// burn rate explodes past 1 in both windows -> breach.
	*now = now.Add(2 * time.Second)
	for i := 0; i < 50; i++ {
		m.Record(200, true, false, 200*time.Millisecond)
	}
	obj = sloObjective(t, m.Report(), SLOLatency)
	short, long := obj.Windows[0], obj.Windows[2]
	if short.Total != 100 || short.Bad != 50 || short.BadFraction != 0.5 {
		t.Fatalf("short window = %+v", short)
	}
	if math.Abs(short.BurnRate-50) > 1e-6 || math.Abs(long.BurnRate-50) > 1e-6 || !obj.Breach {
		t.Fatalf("burn = %v/%v breach=%v, want 50/50 true", short.BurnRate, long.BurnRate, obj.Breach)
	}

	// Two minutes later the short window is clean but the long one still
	// burns: the multiwindow rule reports no breach (blip filter), and
	// once the long window expires too the report is fully clean.
	*now = now.Add(2 * time.Minute)
	obj = sloObjective(t, m.Report(), SLOLatency)
	if obj.Windows[0].Total != 0 || obj.Windows[2].Bad != 50 || obj.Breach {
		t.Fatalf("post-blip report = %+v", obj)
	}
	*now = now.Add(30 * time.Minute)
	obj = sloObjective(t, m.Report(), SLOLatency)
	if obj.Windows[2].Total != 0 || obj.Breach {
		t.Fatalf("expired report = %+v", obj)
	}
}

// The latency objective breaches at its own budget: 1 slow 2xx in 100
// is a bad fraction of exactly 1%, which burns at exactly 1.
func TestSLOLatencyBreachesAtItsBudget(t *testing.T) {
	m, _ := sloAt(SLOConfig{LatencyThreshold: 100 * time.Millisecond})
	for i := 0; i < 99; i++ {
		m.Record(200, true, false, 10*time.Millisecond)
	}
	m.Record(200, true, false, 200*time.Millisecond)
	obj := sloObjective(t, m.Report(), SLOLatency)
	for _, w := range obj.Windows {
		if w.Total != 100 || w.Bad != 1 || w.BurnRate != 1 {
			t.Fatalf("window %ds = %+v, want 1/100 burning at exactly 1", w.Seconds, w)
		}
	}
	if obj.Budget != 0.01 || !obj.Breach {
		t.Fatalf("budget %v breach %v, want 0.01 and a breach", obj.Budget, obj.Breach)
	}
}

func TestSLOColdStartAndGoodputObjectives(t *testing.T) {
	m, _ := sloAt(SLOConfig{ColdStartBudget: 0.2})
	// 8 warm + 2 cold served requests: cold fraction 0.2 burns exactly
	// at budget -> burn 1.0, breach (>= 1).
	for i := 0; i < 8; i++ {
		m.Record(200, true, false, time.Millisecond)
	}
	m.Record(200, true, true, time.Millisecond)
	m.Record(200, true, true, time.Millisecond)
	// 5 refusals (shed, never served) and 1 backend 5xx.
	for i := 0; i < 5; i++ {
		m.Record(429, false, false, time.Microsecond)
	}
	m.Record(502, true, false, time.Millisecond)

	rep := m.Report()
	cold := sloObjective(t, rep, SLOColdStart)
	// Refusals never reached a watchdog: they are not in the cold-start
	// denominator.
	if w := cold.Windows[0]; w.Total != 11 || w.Bad != 2 {
		t.Fatalf("coldstart window = %+v, want 2/11 served-cold", w)
	}
	good := sloObjective(t, rep, SLOGoodput)
	if w := good.Windows[0]; w.Total != 16 || w.Bad != 1 {
		t.Fatalf("goodput window = %+v, want 1/16 5xx", w)
	}
	// 429s are overload refusals, not goodput failures: only the one 5xx
	// burns the 0.1% budget, 1/16 over 0.001, not 6/16.
	if good.Budget != 0.001 || math.Abs(good.Windows[0].BurnRate-62.5) > 1e-9 {
		t.Fatalf("goodput = %+v, want budget 0.001 burning at 62.5", good)
	}
}

func TestSLOSyncExportsGauges(t *testing.T) {
	m, _ := sloAt(SLOConfig{LatencyThreshold: 10 * time.Millisecond})
	reg := New()
	m.Instrument(reg)
	for i := 0; i < 4; i++ {
		m.Record(200, true, false, 50*time.Millisecond) // all slow
	}
	m.Sync()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`hotc_slo_burn_rate{objective="latency",window="1m0s"} 100`,
		`hotc_slo_burn_rate{objective="latency",window="5m0s"} 100`,
		`hotc_slo_bad_fraction{objective="latency",window="1m0s"} 1`,
		`hotc_slo_breach{objective="latency"} 1`,
		`hotc_slo_budget{objective="latency"} 0.01`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
	// The strict parser accepts what Sync exported.
	if _, err := ParseExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("ParseExposition rejects the SLO exposition: %v", err)
	}
}

func TestSLORecordConcurrent(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{LatencyThreshold: time.Millisecond})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Record(200, true, i%10 == 0, 2*time.Millisecond)
				m.Report()
			}
		}()
	}
	wg.Wait()
	obj := sloObjective(t, m.Report(), SLOLatency)
	// All 8000 records land inside the shortest window.
	if got := obj.Windows[0].Total; got != 8000 {
		t.Fatalf("window total = %d, want 8000", got)
	}
}

func TestTraceHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed under -race")
	}
	// Sampler drop decision.
	s := NewTailSampler(SamplerConfig{SampleRate: 0})
	span := Span{Status: 200, Reused: true, ClientOut: time.Millisecond}
	if allocs := testing.AllocsPerRun(200, func() { s.Decide(&span) }); allocs > 0 {
		t.Errorf("TailSampler.Decide allocates %.1f/op", allocs)
	}
	// Ring write, steady state (slot event arrays already grown).
	r := NewTraceRing(4)
	ev := [2]SpanEvent{{Kind: "a"}, {Kind: "b"}}
	for i := 0; i < 8; i++ {
		sp := Span{ID: i + 1}
		r.Put(&sp, ev[:])
	}
	if allocs := testing.AllocsPerRun(200, func() {
		sp := Span{ID: 9}
		r.Put(&sp, ev[:])
	}); allocs > 0 {
		t.Errorf("TraceRing.Put allocates %.1f/op steady-state", allocs)
	}
	// SLO record.
	m := NewSLOMonitor(SLOConfig{LatencyThreshold: time.Millisecond})
	m.Record(200, true, false, time.Millisecond)
	if allocs := testing.AllocsPerRun(200, func() {
		m.Record(200, true, false, 2*time.Millisecond)
	}); allocs > 0 {
		t.Errorf("SLOMonitor.Record allocates %.1f/op", allocs)
	}
	// ID generation and traceparent parsing.
	g := NewIDGen(1)
	if allocs := testing.AllocsPerRun(200, func() { g.NewTraceID() }); allocs > 0 {
		t.Errorf("NewTraceID allocates %.1f/op", allocs)
	}
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if allocs := testing.AllocsPerRun(200, func() { ParseTraceparent(hdr) }); allocs > 0 {
		t.Errorf("ParseTraceparent allocates %.1f/op", allocs)
	}
}
