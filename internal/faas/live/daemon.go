package live

import (
	"bufio"
	"bytes"
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
	"hotc/internal/obs"
)

// Daemon is the long-running HotC gateway server: the live gateway
// plus adaptive control, idle-instance expiry and an HTTP management
// API.
//
// Routes:
//
//	POST /function/{name}          invoke a function
//	GET  /system/functions         list deployed functions
//	POST /system/functions         deploy {"name","handler","coldStartMs"}
//	GET  /system/stats             gateway counters, warm pool sizes, forecasts
//	GET  /system/predictions       per-function controller prediction traces
//
// Handlers are chosen from a built-in registry by name (this is a
// demonstration daemon; it does not execute arbitrary code).
type Daemon struct {
	gw *Gateway
	// started anchors hotc_uptime_seconds, refreshed on each scrape.
	started time.Time
	uptime  *obs.Gauge
}

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
// daemon path.
func builtinFunction(name string) (Function, error) {
	switch name {
	case "echo":
		return Function{Stream: func(r io.Reader, w io.Writer) error {
			_, err := copyPooled(w, r)
			return err
		}}, nil
	case "upper":
		return Function{Stream: upperStream}, nil
	case "wordcount":
		return Function{Stream: wordcountStream}, nil
	case "qr":
		return Function{Handler: func(b []byte) ([]byte, error) {
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
		return Function{Handler: func(b []byte) ([]byte, error) {
			ms := 20
			if s := strings.TrimSpace(string(b)); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil || n < 0 || n > 10_000 {
					return nil, fmt.Errorf("sleep: want milliseconds 0..10000, got %q", s)
				}
				ms = n
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
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
func upperStream(r io.Reader, w io.Writer) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
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
// strconv.Itoa for the allocation-free reply.
func wordcountStream(r io.Reader, w io.Writer) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	sc := bufio.NewScanner(r)
	sc.Buffer(*bp, bufio.MaxScanTokenSize)
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

// NewDaemon is New(cfg) plus the management API and the daemon-level
// build-info and uptime metrics.
func NewDaemon(cfg PoolConfig) *Daemon {
	d := &Daemon{gw: New(cfg), started: time.Now()}
	d.gw.reg.GaugeVec("hotc_build_info",
		"Build metadata: constant 1, labeled by gateway version and Go runtime version.",
		"version", "go_version").With(Version, runtime.Version()).Set(1)
	d.uptime = d.gw.reg.Gauge("hotc_uptime_seconds",
		"Seconds since the daemon started, refreshed on scrape.")
	return d
}

// Config returns the configuration the gateway runs with: the
// PoolConfig given to NewDaemon after New resolved its defaults, so a
// zero TraceSampleRate, TraceSlowThreshold or ShareIdleGrace here means
// "none", not "default".
func (d *Daemon) Config() PoolConfig { return d.gw.cfg }

// Registry exposes the daemon's metrics registry (served at /metrics).
func (d *Daemon) Registry() *obs.Registry { return d.gw.reg }

// DeploySpec is the management-API deployment payload.
type DeploySpec struct {
	// Name routes requests.
	Name string `json:"name"`
	// Handler is a builtin handler name; see Builtins.
	Handler string `json:"handler"`
	// ColdStartMs is the artificial instance boot delay, decomposed
	// into pull/runtime-init/app-init by the daemon's phase split
	// unless the explicit phase fields below are set.
	ColdStartMs int `json:"coldStartMs"`
	// Image, optional, names the function's container image in the
	// standard catalog ("python:3.8", "node:10", ...): boots then skip
	// the pull share of layers already cached on the host.
	Image string `json:"image,omitempty"`
	// PullMs, RuntimeInitMs and AppInitMs, when any is set, spell the
	// boot phases out explicitly instead of splitting ColdStartMs.
	PullMs        int `json:"pullMs,omitempty"`
	RuntimeInitMs int `json:"runtimeInitMs,omitempty"`
	AppInitMs     int `json:"appInitMs,omitempty"`
	// Shareable is the per-deploy sharing opt-out (default true):
	// false keeps this function's instances out of inter-function
	// sharing on both sides.
	Shareable *bool `json:"shareable,omitempty"`
	// MemoryMB declares the function's memory class for the sharing
	// policy (0 = unconstrained).
	MemoryMB int `json:"memoryMB,omitempty"`
}

// Deploy registers a function from a spec.
func (d *Daemon) Deploy(spec DeploySpec) error {
	fn, err := builtinFunction(spec.Handler)
	if err != nil {
		return err
	}
	if spec.ColdStartMs < 0 {
		return fmt.Errorf("live: negative cold start")
	}
	if spec.PullMs < 0 || spec.RuntimeInitMs < 0 || spec.AppInitMs < 0 {
		return fmt.Errorf("live: negative boot phase")
	}
	if spec.Image != "" {
		// An unknown image would silently degrade to no-image boots
		// (full pull every time); refuse it up front instead.
		if _, err := d.gw.cold.registry.Lookup(spec.Image); err != nil {
			return err
		}
	}
	fn.Name = spec.Name
	fn.ColdStart = time.Duration(spec.ColdStartMs) * time.Millisecond
	fn.Image = spec.Image
	fn.Pull = time.Duration(spec.PullMs) * time.Millisecond
	fn.RuntimeInit = time.Duration(spec.RuntimeInitMs) * time.Millisecond
	fn.AppInit = time.Duration(spec.AppInitMs) * time.Millisecond
	fn.NoShare = spec.Shareable != nil && !*spec.Shareable
	if spec.MemoryMB < 0 {
		return fmt.Errorf("live: negative memoryMB")
	}
	fn.MemoryMB = spec.MemoryMB
	return d.gw.Register(fn)
}

// Start binds the daemon to a random loopback port and begins the
// control cycle. It returns the base URL.
func (d *Daemon) Start() (string, error) {
	return d.StartOn("127.0.0.1:0")
}

// StartOn binds the daemon to an explicit address. The gateway's
// control cycle launches with it.
func (d *Daemon) StartOn(addr string) (string, error) {
	return d.gw.startOn(addr, d.routes())
}

// Stop shuts down the HTTP server, the control cycle and all warm
// instances.
func (d *Daemon) Stop() {
	d.gw.Stop()
}

// Stats reports gateway counters.
func (d *Daemon) Stats() Stats { return d.gw.Stats() }

// WarmInstances reports the warm pool size for a function.
func (d *Daemon) WarmInstances(name string) int { return d.gw.WarmInstances(name) }

func (d *Daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/function/", d.gw.handle)
	mux.HandleFunc("/system/functions", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			// The registry lists each function once, sorted; a redeploy
			// replaces it in place (Gateway.Register).
			var names []string
			for _, s := range d.gw.snapshotShards() {
				names = append(names, s.name)
			}
			writeJSON(w, names)
		case http.MethodPost:
			var spec DeploySpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := d.Deploy(spec); err != nil {
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
		for _, s := range d.gw.snapshotShards() {
			warm[s.name] = d.gw.WarmInstances(s.name)
		}
		// resilience, warmAges, forecast and admission share their
		// source of truth with the /metrics endpoint (the same gateway
		// counters, idle lists, controller state and queues).
		writeJSON(w, struct {
			Version       string                     `json:"version"`
			GoVersion     string                     `json:"goVersion"`
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
		}{Version, runtime.Version(), time.Since(d.started).Seconds(),
			d.gw.Draining(), d.gw.Stats(), warm, d.gw.Forecasts(),
			d.gw.ResilienceCounters(), d.gw.WarmAges(time.Now()),
			d.gw.AdmissionStats(), d.gw.WarmMemory(), d.gw.ColdPathStats(),
			d.gw.SharingStats(), d.gw.TraceStats()})
	})
	mux.HandleFunc("/system/drain", func(w http.ResponseWriter, r *http.Request) {
		// POST drains (stop accepting placements, finish in-flight),
		// DELETE undrains, GET reports. The flag also surfaces in
		// /system/stats, which is what the router's poller watches.
		switch r.Method {
		case http.MethodPost:
			d.gw.SetDraining(true)
		case http.MethodDelete:
			d.gw.SetDraining(false)
		case http.MethodGet:
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, struct {
			Draining bool `json:"draining"`
		}{d.gw.Draining()})
	})
	mux.HandleFunc("/system/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := d.gw.TraceSpans()
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
		}{d.gw.TraceStats(), spans})
	})
	mux.HandleFunc("/system/slo", func(w http.ResponseWriter, r *http.Request) {
		if d.gw.slo == nil {
			writeJSON(w, obs.SLOReport{})
			return
		}
		// Sync refreshes the hotc_slo_* gauges from the same pass that
		// builds the JSON, so the two views never disagree.
		writeJSON(w, d.gw.slo.Sync())
	})
	mux.HandleFunc("/system/predictions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.gw.PredictionTraces())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Scrape-time refresh: uptime and the SLO burn-rate gauges are
		// computed views, made exactly as fresh as the scrape.
		d.uptime.Set(time.Since(d.started).Seconds())
		if d.gw.slo != nil {
			d.gw.slo.Sync()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.gw.reg.WritePrometheus(w)
	})
	if d.gw.cfg.EnablePprof {
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
