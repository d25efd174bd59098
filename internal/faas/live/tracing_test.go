package live

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotc/internal/obs"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

func invokeTraced(t *testing.T, base, fn, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/function/"+fn, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(out)
}

func traceSnapshot(t *testing.T, base string) (TraceStats, []obs.Span) {
	t.Helper()
	resp, err := http.Get(base + "/system/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Trace TraceStats `json:"trace"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got.Trace, got.Spans
}

func findSpan(spans []obs.Span, fn func(obs.Span) bool) (obs.Span, bool) {
	for _, sp := range spans {
		if fn(sp) {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// A request carrying a W3C traceparent joins the caller's trace and
// yields a span with all six §III.A moments, on both the streaming
// (echo) and buffered (qr) watchdog paths, on either backend: the
// socket's moments travel back as reply fields, the in-process ones are
// stamped into the span.
func TestTraceEndToEndWithTraceparent(t *testing.T) {
	onBackends(t, traceEndToEnd)
}

func traceEndToEnd(t *testing.T, backend string) {
	d, base := startDaemon(t, PoolConfig{Backend: backend, TraceSampleRate: 1})
	for _, fn := range []string{"echo", "qr"} {
		if err := d.Deploy(DeploySpec{Name: fn, Handler: fn, ColdStartMs: 5}); err != nil {
			t.Fatal(err)
		}
	}
	for _, fn := range []string{"echo", "qr"} {
		resp, _ := invokeTraced(t, base, fn, "hello", map[string]string{
			"Traceparent":   testTraceparent,
			"X-Hotc-Tenant": "alice",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s invoke = %d", fn, resp.StatusCode)
		}
		// The inbound trace ID is echoed for correlation...
		if got := resp.Header.Get("X-Hotc-Trace-Id"); got != testTraceID {
			t.Fatalf("%s X-Hotc-Trace-Id = %q, want %q", fn, got, testTraceID)
		}
		// ...and the watchdog's internal timestamp headers never leak.
		for k := range resp.Header {
			if strings.HasPrefix(k, "X-Hotc-Span-") || k == "Trailer" {
				t.Fatalf("%s leaked internal response header %s", fn, k)
			}
		}

		_, spans := traceSnapshot(t, base)
		sp, ok := findSpan(spans, func(s obs.Span) bool { return s.Function == fn })
		if !ok {
			t.Fatalf("no span for %s in %d spans", fn, len(spans))
		}
		if sp.TraceID != testTraceID {
			t.Fatalf("%s span trace ID = %q, want propagated %q", fn, sp.TraceID, testTraceID)
		}
		if len(sp.SpanID) != 16 || sp.SpanID == "00f067aa0ba902b7" {
			t.Fatalf("%s span ID = %q, want a fresh 16-hex ID", fn, sp.SpanID)
		}
		if sp.KeepReason != obs.KeepCold || sp.Reused || sp.Status != http.StatusOK {
			t.Fatalf("%s span = reason %q reused %v status %d, want cold/false/200",
				fn, sp.KeepReason, sp.Reused, sp.Status)
		}
		if sp.Tenant != "alice" {
			t.Fatalf("%s span tenant = %q", fn, sp.Tenant)
		}
		// All six moments present and in pipeline order.
		stamps := []time.Duration{sp.ClientIn, sp.GatewayIn, sp.WatchdogIn,
			sp.FuncStart, sp.FuncDone, sp.WatchdogOut, sp.ClientOut}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] <= 0 {
				t.Fatalf("%s span stamp %d missing: %v", fn, i, stamps)
			}
			if stamps[i] < stamps[i-1] {
				t.Fatalf("%s span stamps out of order: %v", fn, stamps)
			}
		}
		// The 5ms cold boot happens in the gateway→watchdog acquire
		// phase, so the moments measure something real.
		if sp.Acquire() < 4*time.Millisecond {
			t.Fatalf("%s cold span Acquire = %v, want >= ~5ms boot", fn, sp.Acquire())
		}
	}

	// Without an inbound traceparent the gateway mints a trace ID and
	// still echoes it.
	resp, _ := invokeTraced(t, base, "echo", "again", nil)
	minted := resp.Header.Get("X-Hotc-Trace-Id")
	if len(minted) != 32 || minted == testTraceID {
		t.Fatalf("minted trace ID = %q", minted)
	}
	_, spans := traceSnapshot(t, base)
	if _, ok := findSpan(spans, func(s obs.Span) bool { return s.TraceID == minted }); !ok {
		t.Fatalf("no span for minted trace %s", minted)
	}
}

// Admission queue time shows up as the span's (1)→gateway-admit gap.
func TestTraceQueueWait(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{TraceSampleRate: 1, MaxInFlight: 1, QueueDepth: 8})
	if err := d.Deploy(DeploySpec{Name: "sl", Handler: "sleep", ColdStartMs: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/function/sl", "text/plain", strings.NewReader("100"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	_, spans := traceSnapshot(t, base)
	var maxQueue time.Duration
	n := 0
	for _, sp := range spans {
		if sp.Function == "sl" && sp.Status == http.StatusOK {
			n++
			if q := sp.Queue(); q > maxQueue {
				maxQueue = q
			}
		}
	}
	if n != 2 {
		t.Fatalf("want 2 sl spans, got %d", n)
	}
	// With max-inflight 1 the second request queued behind ~100ms of
	// service time.
	if maxQueue < 20*time.Millisecond {
		t.Fatalf("max queue wait = %v, want the loser to have queued", maxQueue)
	}
}

// Tail sampling: errors, sheds, cold starts and slow requests are
// always retained; bulk warm successes are dropped when the
// probabilistic baseline is off.
func TestTraceRetentionClasses(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{
		TraceSampleRate:    -1, // always-keep classes only
		TraceSlowThreshold: 250 * time.Millisecond,
		MaxBodyBytes:       64,
		BreakerThreshold:   2,
		BreakerOpenFor:     time.Hour,
	})
	for _, spec := range []DeploySpec{
		{Name: "echo", Handler: "echo", ColdStartMs: 1},
		{Name: "sl", Handler: "sleep", ColdStartMs: 1},
	} {
		if err := d.Deploy(spec); err != nil {
			t.Fatal(err)
		}
	}

	if resp, _ := invokeTraced(t, base, "echo", "x", nil); resp.StatusCode != 200 {
		t.Fatalf("cold invoke = %d", resp.StatusCode) // -> kept: cold
	}
	if resp, _ := invokeTraced(t, base, "echo", "y", nil); resp.StatusCode != 200 {
		t.Fatalf("warm invoke = %d", resp.StatusCode) // -> sampled out
	}
	if resp, _ := invokeTraced(t, base, "echo", strings.Repeat("z", 100), nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize invoke = %d, want 413", resp.StatusCode) // -> kept: error
	}
	if resp, _ := invokeTraced(t, base, "sl", "0", nil); resp.StatusCode != 200 {
		t.Fatalf("cold sleep = %d", resp.StatusCode) // -> kept: cold
	}
	if resp, _ := invokeTraced(t, base, "sl", "400", nil); resp.StatusCode != 200 {
		t.Fatalf("slow sleep = %d", resp.StatusCode) // warm, 400ms -> kept: slow
	}
	echo := d.shard("echo")
	d.breakerFailure(echo, "boot.failures")
	d.breakerFailure(echo, "boot.failures")
	if resp, _ := invokeTraced(t, base, "echo", "x", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker invoke = %d, want 503", resp.StatusCode) // -> kept: shed
	}

	stats, spans := traceSnapshot(t, base)
	reasons := map[string]int{}
	for _, sp := range spans {
		reasons[sp.KeepReason]++
	}
	want := map[string]int{obs.KeepCold: 2, obs.KeepError: 1, obs.KeepSlow: 1, obs.KeepShed: 1}
	for reason, n := range want {
		if reasons[reason] != n {
			t.Errorf("kept %d %q spans, want %d (all: %v)", reasons[reason], reason, n, reasons)
		}
	}
	if reasons[obs.KeepSampled] != 0 {
		t.Errorf("probabilistic baseline off but %d sampled spans kept", reasons[obs.KeepSampled])
	}
	if stats.SampledOut != 1 || stats.Kept != 5 {
		t.Errorf("trace stats = %+v, want 1 sampled out, 5 kept", stats)
	}
	// The shed span carries the breaker event.
	shed, ok := findSpan(spans, func(s obs.Span) bool { return s.KeepReason == obs.KeepShed })
	if !ok || len(shed.Events) == 0 || shed.Events[0].Kind != "breaker-rejected" {
		t.Errorf("shed span events = %+v, want a breaker-rejected event", shed.Events)
	}

	// The same accounting is exported as hotc_trace_* counters.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, wantLine := range []string{
		`hotc_trace_kept_total{reason="cold"} 2`,
		`hotc_trace_kept_total{reason="error"} 1`,
		`hotc_trace_kept_total{reason="shed"} 1`,
		`hotc_trace_kept_total{reason="slow"} 1`,
		`hotc_trace_sampled_out_total 1`,
	} {
		if !strings.Contains(string(body), wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}
}

// An induced latency-SLO breach is visible on /system/slo and as
// hotc_slo_* burn-rate gauges.
func TestSLOBreachEndToEnd(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{
		SLOLatency:      time.Nanosecond, // every request breaches
		SLOColdStartPct: 50,
	})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo", ColdStartMs: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		postJSON(t, base+"/function/echo", "x")
	}

	resp, err := http.Get(base + "/system/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep obs.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.SLOObjective{}
	for _, o := range rep.Objectives {
		byName[o.Name] = o
	}
	lat, ok := byName[obs.SLOLatency]
	if !ok || !lat.Breach {
		t.Fatalf("latency objective = %+v, want breach", lat)
	}
	if w := lat.Windows[0]; w.Total != 4 || w.Bad != 4 || w.BurnRate < 1 {
		t.Fatalf("latency window = %+v, want 4/4 bad", w)
	}
	cold, ok := byName[obs.SLOColdStart]
	if !ok || cold.Breach {
		t.Fatalf("coldstart objective = %+v, want within budget", cold)
	}
	if w := cold.Windows[0]; w.Total != 4 || w.Bad != 1 {
		t.Fatalf("coldstart window = %+v, want 1/4 cold", w)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`hotc_slo_breach{objective="latency"} 1`,
		`hotc_slo_breach{objective="coldstart"} 0`,
		`hotc_slo_burn_rate{objective="latency",window="1m0s"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// Build metadata, uptime, exemplars, and the strict exposition check
// over a real daemon scrape.
func TestMetricsBuildInfoUptimeExemplars(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo", ColdStartMs: 1}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, base+"/function/echo", "x") // cold -> kept -> exemplar

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`hotc_build_info{version="dev",go_version="go`,
		"hotc_uptime_seconds",
		` # {trace_id="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The whole exposition survives the strict parser, exemplars
	// included.
	st, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition rejects live /metrics: %v", err)
	}
	if st.Exemplars < 1 {
		t.Errorf("exposition has no exemplars")
	}

	// /system/stats mirrors the build and tracing metadata.
	sresp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var got struct {
		Version       string     `json:"version"`
		GoVersion     string     `json:"goVersion"`
		UptimeSeconds float64    `json:"uptimeSeconds"`
		Trace         TraceStats `json:"trace"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Version != "dev" || !strings.HasPrefix(got.GoVersion, "go") {
		t.Errorf("stats version = %q/%q", got.Version, got.GoVersion)
	}
	if got.UptimeSeconds < 0 || got.UptimeSeconds > 300 {
		t.Errorf("uptimeSeconds = %v", got.UptimeSeconds)
	}
	if got.Trace.Kept < 1 {
		t.Errorf("stats trace = %+v", got.Trace)
	}
}

// With no SLO objective configured, /system/slo answers an empty report.
func TestSLOReportEmptyWithoutObjectives(t *testing.T) {
	_, base := startDaemon(t, PoolConfig{})
	sresp, err := http.Get(base + "/system/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var rep obs.SLOReport
	if err := json.NewDecoder(sresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 0 {
		t.Fatalf("slo report = %+v", rep)
	}
}

// Scrapes of /metrics, /system/trace and /system/slo race live
// traffic, controller ticks and janitor churn; the span ring wraps a
// tiny capacity. Run under -race this is the tracing data-path
// integrity test.
func TestTraceScrapeUnderChurn(t *testing.T) {
	newPred, err := PredictorFactory("es")
	if err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, PoolConfig{
		ControlInterval: 5 * time.Millisecond,
		NewPredictor:    newPred,
		IdleTTL:         50 * time.Millisecond,
		ReapInterval:    2 * time.Millisecond,
		TraceCapacity:   8, // force wraparound
		TraceSampleRate: 1,
		SLOLatency:      250 * time.Millisecond,
		SLOColdStartPct: 5,
		MaxInFlight:     4,
		QueueDepth:      64,
	})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo", ColdStartMs: 1}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests, failures atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := invokeTraced(t, base, "echo", "x", map[string]string{"Traceparent": testTraceparent})
				requests.Add(1)
				// Overload refusals are legitimate under churn; transport
				// or server errors are not.
				if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
					failures.Add(1)
					return
				}
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/system/trace", "/system/slo"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				// The JSONL view stays parseable mid-churn.
				resp, err := http.Get(base + "/system/trace?format=jsonl")
				if err != nil {
					t.Errorf("GET jsonl: %v", err)
					return
				}
				spans, err := obs.ReadSpans(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("jsonl mid-churn: %v", err)
					return
				}
				if len(spans) > 8 {
					t.Errorf("snapshot has %d spans, capacity 8", len(spans))
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d requests failed hard during churn", failures.Load())
	}
	if requests.Load() < 20 {
		t.Fatalf("only %d requests completed; churn test undersampled", requests.Load())
	}

	stats, spans := traceSnapshot(t, base)
	if stats.Kept <= 8 {
		t.Fatalf("kept %d spans; ring (capacity 8) never wrapped", stats.Kept)
	}
	if len(spans) > 8 {
		t.Fatalf("final snapshot %d spans > capacity", len(spans))
	}
	// Quiesced, the full exposition must satisfy the strict parser.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := obs.ParseExposition(resp.Body); err != nil {
		t.Fatalf("post-churn exposition invalid: %v", err)
	}
}

// The sampled-out fast path must not allocate: tracing at default
// sampling adds no per-request heap traffic for the bulk of requests.
func TestFinishRequestSampledOutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed under -race")
	}
	g := New(PoolConfig{TraceSampleRate: -1, TraceSlowThreshold: -1})
	if err := g.Register(Function{Name: "f", Handler: func(_ context.Context, b []byte) ([]byte, error) { return b, nil }}); err != nil {
		t.Fatal(err)
	}
	s := g.shard("f")
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		var rt reqTrace
		rt.reused, rt.served = true, true
		rt.name, rt.start = "f", start
		g.finishRequest(s, &rt, http.StatusOK, "", g.clock.Now())
	})
	if allocs > 0 {
		t.Fatalf("finishRequest allocates %.1f objects on the sampled-out path; must stay at 0", allocs)
	}
}
