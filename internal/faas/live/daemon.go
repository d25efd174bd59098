package live

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"hotc/internal/admission"
	"hotc/internal/hop"
	"hotc/internal/obs"
)

// Daemon is Gateway and NewDaemon is New, under the names the
// benchmark harness calls them by.
type Daemon = Gateway

// NewDaemon is New; see Daemon.
func NewDaemon(cfg PoolConfig) *Gateway { return New(cfg) }

// Version labels hotc_build_info; release builds override it via
// -ldflags "-X hotc/internal/faas/live.Version=v1.2.3".
var Version = "dev"

// Builtin handler names deployable through the API.
func Builtins() []string { return []string{"echo", "qr", "sleep", "upper", "wordcount"} }

// builtinFunction resolves a builtin by name into its handler fields
// (the caller fills in Name and ColdStart). echo, upper and wordcount
// are streaming: they process the body chunk-wise through pooled
// buffers and never hold the full payload. qr stays a []byte handler
// deliberately — it keeps the pooled compat shim exercised on the
// daemon path. sleep waits on the gateway's clock, under its request's
// context.
func (g *Gateway) builtinFunction(name string) (Function, error) {
	switch name {
	case "echo":
		return Function{Stream: func(_ context.Context, r io.Reader, w io.Writer) error {
			_, err := hop.Copy(w, r)
			return err
		}}, nil
	case "upper":
		return Function{Stream: upperStream}, nil
	case "wordcount":
		return Function{Stream: wordcountStream}, nil
	case "qr":
		return Function{Handler: func(_ context.Context, b []byte) ([]byte, error) {
			s := strings.TrimSpace(string(b))
			if s == "" {
				return nil, fmt.Errorf("empty input")
			}
			return []byte("QR(" + s + ")"), nil
		}}, nil
	case "sleep":
		// Constant-service-time handler for load benches: the body is
		// the service time in milliseconds (default 20). It occupies
		// its instance for the whole interval, which is what makes
		// saturation reproducible — throughput is instances/latency,
		// not CPU-bound.
		return Function{Handler: func(ctx context.Context, b []byte) ([]byte, error) {
			ms := 20
			if s := strings.TrimSpace(string(b)); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil || n < 0 || n > 10_000 {
					return nil, fmt.Errorf("sleep: want milliseconds 0..10000, got %q", s)
				}
				ms = n
			}
			if err := g.clock.Sleep(ctx, time.Duration(ms)*time.Millisecond); err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("slept %dms", ms)), nil
		}}, nil
	default:
		return Function{}, fmt.Errorf("live: unknown builtin handler %q (have %v)", name, Builtins())
	}
}

// upperStream uppercases the body chunk-wise through a pooled buffer:
// ASCII chunks (the common case) are rewritten in place with zero
// allocations; chunks containing multi-byte runes fall back to
// bytes.ToUpper, with an incomplete trailing rune carried into the
// next read so no rune is ever split across a chunk boundary.
func upperStream(_ context.Context, r io.Reader, w io.Writer) error {
	bp := hop.GetBuf()
	defer hop.PutBuf(bp)
	buf := *bp
	keep := 0
	for {
		n, err := r.Read(buf[keep:])
		n += keep
		keep = 0
		chunk := buf[:n]
		if err == nil {
			// A trailing incomplete rune waits for its continuation
			// bytes — even when it is all we have (tiny reads).
			if tail := incompleteRuneTail(chunk); tail > 0 {
				keep = tail
				chunk = chunk[:n-tail]
			}
		}
		if len(chunk) > 0 {
			out := chunk
			if asciiOnly(chunk) {
				upperASCII(chunk)
			} else {
				out = bytes.ToUpper(chunk)
			}
			if _, werr := w.Write(out); werr != nil {
				return werr
			}
		}
		if keep > 0 {
			copy(buf, buf[n-keep:n])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// incompleteRuneTail reports how many trailing bytes of p form the
// start of a UTF-8 rune whose continuation bytes have not arrived yet
// (0 when p ends on a rune boundary or in bytes that can never
// complete a rune).
func incompleteRuneTail(p []byte) int {
	for i := 1; i <= utf8.UTFMax && i <= len(p); i++ {
		b := p[len(p)-i]
		if b < utf8.RuneSelf {
			return 0 // ASCII: a boundary
		}
		if b&0xC0 == 0xC0 { // leading byte of a multi-byte rune
			var need int
			switch {
			case b&0xE0 == 0xC0:
				need = 2
			case b&0xF0 == 0xE0:
				need = 3
			case b&0xF8 == 0xF0:
				need = 4
			default:
				return 0 // invalid lead byte: pass through as-is
			}
			if i < need {
				return i // rune truncated at the chunk end
			}
			return 0
		}
		// 0b10xxxxxx continuation byte: keep scanning backwards.
	}
	return 0
}

func asciiOnly(p []byte) bool {
	for _, b := range p {
		if b >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func upperASCII(p []byte) {
	for i, b := range p {
		if 'a' <= b && b <= 'z' {
			p[i] = b - ('a' - 'A')
		}
	}
}

// wordcountStream counts whitespace-separated words without ever
// holding more than one token: a bufio scanner over a pooled buffer,
// strconv.Itoa for the allocation-free reply. The scanner's token
// limit is the larger of its buffer's capacity and the max it is
// given, so the chunk is capped at bufio.MaxScanTokenSize: a word of
// 64 KiB or more fails whatever hop.BufSize is.
func wordcountStream(_ context.Context, r io.Reader, w io.Writer) error {
	bp := hop.GetBuf()
	defer hop.PutBuf(bp)
	sc := bufio.NewScanner(r)
	sc.Buffer((*bp)[:bufio.MaxScanTokenSize:bufio.MaxScanTokenSize], bufio.MaxScanTokenSize)
	sc.Split(bufio.ScanWords)
	count := 0
	for sc.Scan() {
		count++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := io.WriteString(w, strconv.Itoa(count))
	return err
}

// Config returns the configuration the gateway runs with: the
// PoolConfig given to New after it resolved the defaults, so a zero
// TraceSampleRate, TraceSlowThreshold or ShareIdleGrace here means
// "none", not "default".
func (g *Gateway) Config() PoolConfig { return g.cfg }

// Registry exposes the gateway's metrics registry (served at /metrics).
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// DeploySpec is the management-API deployment payload.
type DeploySpec struct {
	// Name routes requests.
	Name string `json:"name"`
	// Handler is a builtin handler name; see Builtins.
	Handler string `json:"handler"`
	// ColdStartMs is the artificial instance boot delay, decomposed
	// into pull/runtime-init/app-init by the gateway's phase split.
	ColdStartMs int `json:"coldStartMs"`
	// Image, optional, names the function's container image in the
	// standard catalog ("python:3.8", "node:10", ...): boots then skip
	// the pull share of layers already cached on the host.
	Image string `json:"image,omitempty"`
	// Shareable is the per-deploy sharing opt-out (default true):
	// false keeps this function's instances out of inter-function
	// sharing on both sides.
	Shareable *bool `json:"shareable,omitempty"`
	// MemoryMB declares the function's memory class for the sharing
	// policy (0 = unconstrained).
	MemoryMB int `json:"memoryMB,omitempty"`
}

// maxBootMs bounds a deploy's boot delay, ColdStartMs, to what a
// time.Duration holds, as maxDeadlineMs bounds a deadline: a larger
// delay would wrap negative.
const maxBootMs = maxDeadlineMs

// Deploy registers a function from a spec.
func (g *Gateway) Deploy(spec DeploySpec) error {
	fn, err := g.builtinFunction(spec.Handler)
	if err != nil {
		return err
	}
	if spec.ColdStartMs < 0 || int64(spec.ColdStartMs) > maxBootMs {
		return fmt.Errorf("live: coldStartMs %d outside [0, %d]", spec.ColdStartMs, maxBootMs)
	}
	if spec.Image != "" {
		// An unknown image would silently degrade to no-image boots
		// (full pull every time); refuse it up front instead.
		if _, err := g.cold.registry.Lookup(spec.Image); err != nil {
			return err
		}
	}
	fn.Name = spec.Name
	fn.ColdStart = time.Duration(spec.ColdStartMs) * time.Millisecond
	fn.Image = spec.Image
	fn.NoShare = spec.Shareable != nil && !*spec.Shareable
	if spec.MemoryMB < 0 {
		return fmt.Errorf("live: negative memoryMB")
	}
	fn.MemoryMB = spec.MemoryMB
	return g.Register(fn)
}

// routes is the route table StartOn serves:
//
//	POST /function/{name}          invoke a function
//	GET  /system/functions         list deployed functions
//	POST /system/functions         deploy {"name","handler","coldStartMs"}
//	GET  /system/stats             gateway counters, warm pool sizes, forecasts
//	GET  /system/predictions       per-function controller prediction traces
//
// Handlers are chosen from a built-in registry by name (this is a
// demonstration daemon; it does not execute arbitrary code).
func (g *Gateway) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/function/", g.handle)
	mux.HandleFunc("/system/functions", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			// The registry lists each function once, sorted; a redeploy
			// replaces it in place (Gateway.Register).
			var names []string
			for _, s := range g.snapshotShards() {
				names = append(names, s.name)
			}
			writeJSON(w, names)
		case http.MethodPost:
			// An unknown field is refused by name, as scenario specs
			// are: dropped silently, a misspelt knob would deploy
			// something other than what was asked for.
			var spec DeploySpec
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := g.Deploy(spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusAccepted)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/system/stats", func(w http.ResponseWriter, r *http.Request) {
		warm := map[string]int{}
		for _, s := range g.snapshotShards() {
			warm[s.name] = g.WarmInstances(s.name)
		}
		// resilience, warmAges, forecast and admission share their
		// source of truth with the /metrics endpoint (the same gateway
		// counters, idle lists, controller state and queues).
		writeJSON(w, struct {
			Version       string                     `json:"version"`
			GoVersion     string                     `json:"goVersion"`
			Backend       string                     `json:"backend"`
			UptimeSeconds float64                    `json:"uptimeSeconds"`
			Draining      bool                       `json:"draining"`
			Stats         Stats                      `json:"stats"`
			Warm          map[string]int             `json:"warmInstances"`
			Forecast      map[string]float64         `json:"forecast"`
			Resilience    map[string]int             `json:"resilience"`
			WarmAges      map[string][]float64       `json:"warmAgeSeconds"`
			Admission     map[string]admission.Stats `json:"admission,omitempty"`
			WarmMemory    WarmMemoryStats            `json:"warmMemory,omitempty"`
			ColdPath      ColdPathStats              `json:"coldPath"`
			Sharing       SharingStats               `json:"sharing"`
			Trace         TraceStats                 `json:"trace"`
		}{Version, runtime.Version(), g.cfg.Backend, g.uptime().Seconds(),
			g.Draining(), g.Stats(), warm, g.Forecasts(),
			g.ResilienceCounters(), g.WarmAges(g.clock.Now()),
			g.AdmissionStats(), g.WarmMemory(), g.ColdPathStats(),
			g.SharingStats(), g.TraceStats()})
	})
	mux.HandleFunc("/system/drain", func(w http.ResponseWriter, r *http.Request) {
		// POST drains (stop accepting placements, finish in-flight),
		// DELETE undrains, GET reports. The flag also surfaces in
		// /system/stats, which is what the router's poller watches.
		switch r.Method {
		case http.MethodPost:
			g.SetDraining(true)
		case http.MethodDelete:
			g.SetDraining(false)
		case http.MethodGet:
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, struct {
			Draining bool `json:"draining"`
		}{g.Draining()})
	})
	mux.HandleFunc("/system/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := g.TraceSpans()
		if v := r.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(spans) {
				spans = spans[:n]
			}
		}
		if r.URL.Query().Get("format") == "jsonl" {
			// The same JSONL shape the sim writes and `hotc-trace
			// spans` reads: one span per line.
			w.Header().Set("Content-Type", "application/x-ndjson")
			obs.WriteSpans(w, spans)
			return
		}
		writeJSON(w, struct {
			Trace TraceStats `json:"trace"`
			Spans []obs.Span `json:"spans"`
		}{g.TraceStats(), spans})
	})
	mux.HandleFunc("/system/slo", func(w http.ResponseWriter, r *http.Request) {
		if g.slo == nil {
			writeJSON(w, obs.SLOReport{})
			return
		}
		// Sync refreshes the hotc_slo_* gauges from the same pass that
		// builds the JSON, so the two views never disagree.
		writeJSON(w, g.slo.Sync())
	})
	mux.HandleFunc("/system/predictions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, g.PredictionTraces())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Scrape-time refresh: uptime and the SLO burn-rate gauges are
		// computed views, made exactly as fresh as the scrape.
		g.obs.uptime.Set(g.uptime().Seconds())
		if g.slo != nil {
			g.slo.Sync()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.reg.WritePrometheus(w)
	})
	if g.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
