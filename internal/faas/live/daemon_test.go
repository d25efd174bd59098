package live

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func startDaemon(t *testing.T, cfg PoolConfig) (*Gateway, string) {
	t.Helper()
	g := New(cfg)
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	return g, base
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestDaemonDeployAndInvokeOverHTTP(t *testing.T) {
	_, base := startDaemon(t, PoolConfig{})
	resp := postJSON(t, base+"/system/functions", `{"name":"up","handler":"upper","coldStartMs":5}`)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("deploy status %d: %s", resp.StatusCode, b)
	}

	inv := postJSON(t, base+"/function/up", `hello`)
	body, _ := io.ReadAll(inv.Body)
	if inv.StatusCode != http.StatusOK || string(body) != "HELLO" {
		t.Fatalf("invoke = %d %q", inv.StatusCode, body)
	}

	// Listing shows the function.
	lst, err := http.Get(base + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Body.Close()
	var names []string
	if err := json.NewDecoder(lst.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "up" {
		t.Fatalf("functions = %v", names)
	}
}

// A redeploy replaces the function in place: the listing (and the
// /system/stats walk over it) names it once, sorted with the rest.
func TestRedeployListsFunctionOnce(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	for _, spec := range []DeploySpec{
		{Name: "e", Handler: "upper"},
		{Name: "a", Handler: "echo"},
		{Name: "e", Handler: "echo"},
	} {
		if err := d.Deploy(spec); err != nil {
			t.Fatal(err)
		}
		if spec.Handler == "upper" {
			// Leave the first version a warm instance for the redeploy
			// to find.
			inv := postJSON(t, base+"/function/e", "x")
			if body, _ := io.ReadAll(inv.Body); string(body) != "X" {
				t.Fatalf("e answered %q, want the upper handler's \"X\"", body)
			}
		}
	}
	lst, err := http.Get(base + "/system/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Body.Close()
	var names []string
	if err := json.NewDecoder(lst.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "e" {
		t.Fatalf("functions = %v, want [a e]", names)
	}
	inv := postJSON(t, base+"/function/e", "x")
	if body, _ := io.ReadAll(inv.Body); string(body) != "x" || inv.Header.Get("X-Hotc-Reused") != "false" {
		t.Fatalf("redeployed e answered %q (reused=%s), want the echo handler's \"x\" from a fresh instance",
			body, inv.Header.Get("X-Hotc-Reused"))
	}
}

func TestDaemonStatsEndpoint(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, base+"/function/echo", "x")
	postJSON(t, base+"/function/echo", "y")

	resp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Stats Stats          `json:"stats"`
		Warm  map[string]int `json:"warmInstances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Stats.Requests != 2 || got.Stats.ColdStarts != 1 || got.Stats.Reused != 1 {
		t.Fatalf("stats = %+v", got.Stats)
	}
	if got.Warm["echo"] != 1 {
		t.Fatalf("warm = %v", got.Warm)
	}
}

func TestDaemonDeployValidation(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	cases := []string{
		`{"name":"x","handler":"teleport"}`,
		`{"name":"x","handler":"echo","coldStartMs":-1}`,
		`{"name":"","handler":"echo"}`,
		`not json`,
	}
	for _, body := range cases {
		resp := postJSON(t, base+"/system/functions", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deploy %q status = %d, want 400", body, resp.StatusCode)
		}
	}
	if err := d.Deploy(DeploySpec{Name: "ok", Handler: "wordcount"}); err != nil {
		t.Fatal(err)
	}
	inv := postJSON(t, base+"/function/ok", "a b c")
	body, _ := io.ReadAll(inv.Body)
	if string(body) != "3" {
		t.Fatalf("wordcount = %q", body)
	}
}

// A deploy carrying a field the daemon does not know — here the removed
// per-phase pullMs — is refused with the field named, not deployed with
// the field dropped.
func TestDeployRefusesUnknownFields(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	resp := postJSON(t, base+"/system/functions", `{"name":"f","handler":"echo","coldStartMs":400,"pullMs":5}`)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"pullMs"`) {
		t.Fatalf("deploy with pullMs: %d %q, want 400 naming the field", resp.StatusCode, body)
	}
	if d.shard("f") != nil {
		t.Fatal("the refused spec deployed f")
	}
}

// A boot delay past what a time.Duration holds wrapped negative and
// made every boot instant: ColdStartMs is refused above maxBootMs, and
// the largest delay accepted stays a positive boot.
func TestDeployRefusesBootDelaysThatWrap(t *testing.T) {
	d := New(PoolConfig{})
	defer d.Stop()
	over := DeploySpec{Name: "f", Handler: "echo", ColdStartMs: 9223372036855}
	if err := d.Deploy(over); err == nil {
		t.Errorf("%+v accepted: boot phases %+v", over, d.phasesFor(d.shard("f").fn))
	}
	top := DeploySpec{Name: "max", Handler: "echo", ColdStartMs: 9223372036854}
	if err := d.Deploy(top); err != nil {
		t.Fatalf("%+v refused: %v", top, err)
	}
	if ph := d.phasesFor(d.shard("max").fn); ph.pull <= 0 || ph.runtime <= 0 || ph.app <= 0 {
		t.Fatalf("%+v: boot phases %+v, want all positive", top, ph)
	}
}

// FuzzDeploySpec posts arbitrary JSON to POST /system/functions:
// nothing panics, and a spec the daemon accepts boots with phases that
// are each non-negative and sum without wrapping.
func FuzzDeploySpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"f","handler":"echo"}`,
		`{"name":"f","handler":"upper","coldStartMs":400}`,
		`{"name":"f","handler":"echo","coldStartMs":9223372036854}`,
		`{"name":"f","handler":"echo","coldStartMs":9223372036855}`,
		`{"name":"f","handler":"echo","coldStartMs":-1}`,
		`{"name":"a/b","handler":"echo"}`,
		`{"name":"f","handler":"echo","coldStartMs":1e3}`,
		`{"name":"f","handler":"wordcount","image":"python:3.8","coldStartMs":6}`,
		`{"name":"f","handler":"echo","image":"no-such-image:1.0"}`,
		`{"name":"f","handler":"echo","memoryMB":-1,"shareable":false}`,
		`{"name":"","handler":"echo"}`,
		`{"name":"f","handler":"teleport"}`,
		`{"name":"f","handler":"echo","coldStartMs":400,"pullMs":5}`,
		`not json`,
	} {
		f.Add(seed)
	}
	d := New(PoolConfig{})
	f.Cleanup(d.Stop)
	mux := d.routes()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/system/functions", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			return
		}
		var spec DeploySpec
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("%q accepted but does not decode: %v", body, err)
		}
		s := d.shard(spec.Name)
		if s == nil {
			t.Fatalf("%q accepted but %q is not deployed", body, spec.Name)
		}
		s.mu.Lock()
		fn := s.fn
		s.mu.Unlock()
		ph := d.phasesFor(fn)
		if fn.ColdStart < 0 || ph.pull < 0 || ph.runtime < 0 || ph.app < 0 || ph.pull+ph.runtime+ph.app < 0 {
			t.Fatalf("%q accepted with cold start %v and boot phases %+v", body, fn.ColdStart, ph)
		}
	})
}

func TestDaemonMethodNotAllowed(t *testing.T) {
	_, base := startDaemon(t, PoolConfig{})
	req, _ := http.NewRequest(http.MethodDelete, base+"/system/functions", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestReaperTTLExpiry(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{IdleTTL: time.Hour, ReapInterval: time.Hour})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, base+"/function/echo", "x")
	if d.WarmInstances("echo") != 1 {
		t.Fatalf("warm = %d", d.WarmInstances("echo"))
	}
	// Within TTL: kept.
	d.janitorOnce(time.Now().Add(30 * time.Minute))
	if d.WarmInstances("echo") != 1 {
		t.Fatal("instance reaped before TTL")
	}
	// Past TTL: reaped.
	d.janitorOnce(time.Now().Add(2 * time.Hour))
	if d.WarmInstances("echo") != 0 {
		t.Fatal("instance survived TTL")
	}
	// Next request cold-starts again and still works.
	inv := postJSON(t, base+"/function/echo", "again")
	body, _ := io.ReadAll(inv.Body)
	if string(body) != "again" {
		t.Fatalf("post-reap invoke = %q", body)
	}
	if d.Stats().ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2", d.Stats().ColdStarts)
	}
}

func TestWarmCapEnforcedContinuously(t *testing.T) {
	// The cap holds at every instant, not just at janitor ticks:
	// release evicts the oldest idle instance instead of growing past
	// the limit.
	d, base := startDaemon(t, PoolConfig{MaxIdlePerFunction: 2, ReapInterval: time.Hour})
	// The handler holds every request at a barrier until all four are in
	// flight, so they run on four distinct instances however fast one
	// request is.
	var inFlight sync.WaitGroup
	inFlight.Add(4)
	if err := d.Register(Function{Name: "s", Handler: func(_ context.Context, b []byte) ([]byte, error) {
		inFlight.Done()
		inFlight.Wait()
		return b, nil
	}}); err != nil {
		t.Fatal(err)
	}
	// As each request finishes, the pool admits its instance but never
	// exceeds the cap.
	done := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Post(base+"/function/s", "text/plain", strings.NewReader("x"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
		if got := d.WarmInstances("s"); got > 2 {
			t.Fatalf("warm pool %d exceeds cap 2", got)
		}
	}
	if got := d.WarmInstances("s"); got != 2 {
		t.Fatalf("warm after all releases = %d, want 2", got)
	}
	if st := d.Stats(); st.Retired != 2 {
		t.Fatalf("Retired = %d, want 2 oldest-first cap evictions", st.Retired)
	}
	// A janitor pass leaves the capped list alone.
	d.janitorOnce(time.Now())
	if got := d.WarmInstances("s"); got != 2 {
		t.Fatalf("warm after reap = %d, want 2", got)
	}
}

// End-to-end adaptive control through the daemon: real controller
// goroutines tick, the prediction trace endpoint reports them, and
// /system/stats carries the forecast.
func TestDaemonAdaptiveControlEndToEnd(t *testing.T) {
	newPred, err := PredictorFactory("es+markov")
	if err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, PoolConfig{
		ControlInterval: 20 * time.Millisecond,
		NewPredictor:    newPred,
		IdleTTL:         time.Hour,
		ReapInterval:    time.Hour,
	})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, base+"/function/echo", "x")

	// Wait for a few controller ticks to land.
	var trace PredictionTrace
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/system/predictions")
		if err != nil {
			t.Fatal(err)
		}
		var traces map[string]PredictionTrace
		err = json.NewDecoder(resp.Body).Decode(&traces)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tr, ok := traces["echo"]; ok && tr.Ticks >= 2 {
			trace = tr
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no controller ticks observed: %+v", traces)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if trace.Predictor != "hotc(es+markov)" {
		t.Fatalf("predictor = %q", trace.Predictor)
	}
	if len(trace.Observed) != trace.Ticks || len(trace.Predicted) != trace.Ticks {
		t.Fatalf("trace series lengths %d/%d do not match ticks %d",
			len(trace.Observed), len(trace.Predicted), trace.Ticks)
	}

	// /system/stats exposes the same forecast.
	resp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Forecast map[string]float64 `json:"forecast"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Forecast["echo"]; !ok {
		t.Fatalf("stats missing forecast: %v", got.Forecast)
	}

	// And /metrics carries the controller families under the same
	// names the simulated substrate emits.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	text := string(body)
	for _, want := range []string{
		"hotc_ctl_ticks_total",
		`hotc_ctl_demand{key="echo"}`,
		`hotc_ctl_forecast{key="echo"}`,
		`hotc_ctl_target{key="echo"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// A function deployed after the daemon started joins the control loop.
func TestDaemonLateDeployJoinsController(t *testing.T) {
	newPred, err := PredictorFactory("es")
	if err != nil {
		t.Fatal(err)
	}
	_, base := startDaemon(t, PoolConfig{
		ControlInterval: 20 * time.Millisecond,
		NewPredictor:    newPred,
	})
	// Deployed over HTTP, strictly after Start.
	resp := postJSON(t, base+"/system/functions", `{"name":"late","handler":"upper"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deploy status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(base + "/system/predictions")
		if err != nil {
			t.Fatal(err)
		}
		var traces map[string]PredictionTrace
		err = json.NewDecoder(r.Body).Decode(&traces)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tr, ok := traces["late"]; ok && tr.Ticks >= 1 {
			if tr.Predictor != "es(α=0.80)" {
				t.Fatalf("predictor = %q", tr.Predictor)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("late-deployed function never ticked: %+v", traces)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPredictorFactory(t *testing.T) {
	for _, name := range []string{"es", "markov", "es+markov"} {
		f, err := PredictorFactory(name)
		if err != nil || f == nil {
			t.Errorf("PredictorFactory(%q): factory nil=%v, err=%v", name, f == nil, err)
		} else if f() == nil {
			t.Errorf("PredictorFactory(%q) built a nil predictor", name)
		}
	}
	for _, name := range []string{"", "off"} {
		f, err := PredictorFactory(name)
		if err != nil || f != nil {
			t.Errorf("PredictorFactory(%q): factory nil=%v, err=%v, want nil, nil", name, f == nil, err)
		}
	}
	if _, err := PredictorFactory("oracle"); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

func TestBuiltinsListed(t *testing.T) {
	g := New(PoolConfig{})
	defer g.Stop()
	for _, name := range Builtins() {
		fn, err := g.builtinFunction(name)
		if err != nil {
			t.Errorf("builtin %q unavailable: %v", name, err)
			continue
		}
		if fn.Handler == nil && fn.Stream == nil {
			t.Errorf("builtin %q resolved to no handler", name)
		}
	}
	if _, err := g.builtinFunction("nope"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func TestBreakerOpensAndRejects(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{BreakerThreshold: 2, BreakerOpenFor: time.Hour})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	// A healthy request passes through a closed breaker.
	if resp := postJSON(t, base+"/function/echo", "x"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy invoke = %d", resp.StatusCode)
	}
	// Feed the breaker consecutive backend failures until it trips.
	echo := d.shard("echo")
	d.breakerFailure(echo, "boot.failures")
	d.breakerFailure(echo, "boot.failures")

	resp := postJSON(t, base+"/function/echo", "x")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker invoke = %d, want 503", resp.StatusCode)
	}
	// The fast-fail carries an honest retry hint: the remainder of the
	// breaker's open window (an hour here), not a blind constant.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 3500 || ra > 3600 {
		t.Fatalf("open-breaker Retry-After = %q, want ~3600s (remaining open window)", resp.Header.Get("Retry-After"))
	}

	res := d.ResilienceCounters()
	for counter, want := range map[string]int{
		"boot.failures":    2,
		"breaker.trips":    1,
		"breaker.rejected": 1,
	} {
		if res[counter] != want {
			t.Errorf("resilience[%s] = %d, want %d (all: %v)", counter, res[counter], want, res)
		}
	}

	// The trip is visible on /metrics as an open breaker gauge.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(body), `hotc_breaker_state{key="echo"} 1`) {
		t.Fatalf("/metrics missing open breaker gauge:\n%s", body)
	}

	// Unknown functions keep 404ing rather than feeding or consulting
	// the breaker.
	if resp := postJSON(t, base+"/function/typo", "x"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown function = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, base+"/function/echo", "x")
	postJSON(t, base+"/function/echo", "y")

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`hotc_requests_total{function="echo",outcome="ok"} 2`,
		`hotc_starts_total{mode="cold"} 1`,
		`hotc_starts_total{mode="warm"} 1`,
		`hotc_live_warm_instances{function="echo"} 1`,
		`hotc_request_latency_ms_bucket{function="echo",le="+Inf"} 2`,
		`# TYPE hotc_request_latency_ms histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

func TestStatsResilienceAndWarmAges(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, base+"/function/echo", "x")

	resp, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Resilience map[string]int       `json:"resilience"`
		WarmAges   map[string][]float64 `json:"warmAgeSeconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Resilience == nil {
		t.Fatal("stats missing resilience counters")
	}
	ages := got.WarmAges["echo"]
	if len(ages) != 1 || ages[0] < 0 || ages[0] > 60 {
		t.Fatalf("warmAgeSeconds[echo] = %v, want one small non-negative age", ages)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	_, off := startDaemon(t, PoolConfig{})
	resp, err := http.Get(off + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled but GET /debug/pprof/ = %d", resp.StatusCode)
	}

	_, on := startDaemon(t, PoolConfig{EnablePprof: true})
	resp, err = http.Get(on + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled but GET /debug/pprof/ = %d", resp.StatusCode)
	}
}

// doMethod issues a bodyless request with an explicit method.
func doMethod(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// Drain must complete in-flight work while refusing new placements,
// and undrain must restore service.
func TestDrainCompletesInFlightAndRefusesNew(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	if err := d.Deploy(DeploySpec{Name: "sleep", Handler: "sleep"}); err != nil {
		t.Fatal(err)
	}

	// A slow request in flight when the drain lands.
	type outcome struct {
		status int
		body   string
	}
	inFlight := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/function/sleep", "text/plain", strings.NewReader("300"))
		if err != nil {
			inFlight <- outcome{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inFlight <- outcome{resp.StatusCode, string(b)}
	}()
	time.Sleep(50 * time.Millisecond) // the sleep handler is now executing

	if resp := doMethod(t, http.MethodPost, base+"/system/drain"); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	if !d.Draining() {
		t.Fatal("gateway not draining after POST /system/drain")
	}

	// New placements are refused with the drain marker...
	ref := postJSON(t, base+"/function/sleep", "1")
	if ref.StatusCode != http.StatusServiceUnavailable || ref.Header.Get(DrainingHeader) != "true" {
		t.Fatalf("draining refusal = %d, %s=%q; want 503 with drain header",
			ref.StatusCode, DrainingHeader, ref.Header.Get(DrainingHeader))
	}

	// ...while the in-flight request runs to completion.
	got := <-inFlight
	if got.status != http.StatusOK || got.body != "slept 300ms" {
		t.Fatalf("in-flight request during drain = %d %q, want it to complete", got.status, got.body)
	}

	// /system/stats advertises the drain (the router's poll signal).
	stats, err := http.Get(base + "/system/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if !st.Draining {
		t.Fatal("stats did not report draining")
	}

	// Undrain restores service.
	if resp := doMethod(t, http.MethodDelete, base+"/system/drain"); resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain status %d", resp.StatusCode)
	}
	ok := postJSON(t, base+"/function/sleep", "1")
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-undrain invoke = %d, want 200", ok.StatusCode)
	}

	if resp := doMethod(t, http.MethodPut, base+"/system/drain"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /system/drain = %d, want 405", resp.StatusCode)
	}
}
