// Package scenario runs declarative experiment specifications: a JSON
// document describing the hardware profile, runtime-management policy,
// deployed functions and workload, executed on the simulation
// substrate. This lets experiments be versioned, shared and replayed
// without writing Go:
//
//	{
//	  "name": "burst-study",
//	  "policy": "hotc",
//	  "profile": "server",
//	  "functions": [
//	    {"name": "qr", "image": "python:3.8", "app": "qr-python"}
//	  ],
//	  "workload": {"kind": "burst", "rounds": 18, "intervalSec": 30}
//	}
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hotc"
	"hotc/internal/obs"
	"hotc/internal/workload"
)

// Spec is a runnable experiment description.
type Spec struct {
	// Name labels the run.
	Name string `json:"name"`
	// Profile is "server" (default) or "edge-pi".
	Profile string `json:"profile,omitempty"`
	// Policy is hotc|cold|keepalive|warmup|histogram (default hotc).
	Policy string `json:"policy,omitempty"`
	// Seed drives jitter (0 = noiseless).
	Seed int64 `json:"seed,omitempty"`
	// KeepAliveSec tunes the keepalive/warmup policies.
	KeepAliveSec float64 `json:"keepAliveSec,omitempty"`
	// ControlIntervalSec tunes HotC's control loop.
	ControlIntervalSec float64 `json:"controlIntervalSec,omitempty"`
	// Functions are the deployed functions; request class i maps to
	// Functions[i % len].
	Functions []FunctionSpec `json:"functions"`
	// Workload is the request schedule.
	Workload WorkloadSpec `json:"workload"`
	// Cluster, when present, runs the workload on a multi-host HotC
	// cluster instead of a single host (Policy is then ignored: every
	// node runs HotC).
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Faults, when present, injects deterministic failures (failed
	// creates, exec crashes, corruption, slow starts) into the engine.
	// Single-host runs only.
	Faults *hotc.FaultsConfig `json:"faults,omitempty"`
	// Resilience, when present, arms the gateway's retry / circuit
	// breaker / fallback machinery. Single-host runs only.
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
	// Sharing turns on inter-function container sharing: on a pool
	// miss an idle container of another function is re-keyed as a
	// zygote instead of paying a full cold start. Single-host runs only.
	Sharing bool `json:"sharing,omitempty"`
	// SharingIdleGraceSec keeps containers off the lending market until
	// they have been idle this many virtual seconds, so renters take
	// only genuine surplus instead of a busy function's working set.
	// Zero means any available container may be lent.
	SharingIdleGraceSec float64 `json:"sharingIdleGraceSec,omitempty"`
}

// ResilienceSpec is the JSON shape of hotc.ResilienceConfig.
type ResilienceSpec struct {
	// MaxAcquireRetries bounds acquire retries per request.
	MaxAcquireRetries int `json:"maxAcquireRetries,omitempty"`
	// RetryBackoffMs is the base retry delay in milliseconds.
	RetryBackoffMs float64 `json:"retryBackoffMs,omitempty"`
	// BackoffFactor grows the delay per attempt.
	BackoffFactor float64 `json:"backoffFactor,omitempty"`
	// BackoffMaxMs caps the delay.
	BackoffMaxMs float64 `json:"backoffMaxMs,omitempty"`
	// BackoffJitter spreads delays by the given fraction.
	BackoffJitter float64 `json:"backoffJitter,omitempty"`
	// ExecRetries bounds exec-failure fallbacks per request.
	ExecRetries int `json:"execRetries,omitempty"`
	// BreakerThreshold arms the per-key circuit breaker (0 = off).
	BreakerThreshold int `json:"breakerThreshold,omitempty"`
	// BreakerOpenSec is the breaker's open window in seconds.
	BreakerOpenSec float64 `json:"breakerOpenSec,omitempty"`
	// Defaults, when true, starts from hotc.DefaultResilience and lets
	// the other fields override it.
	Defaults bool `json:"defaults,omitempty"`
}

// config lowers the spec onto hotc.ResilienceConfig.
func (r ResilienceSpec) config() hotc.ResilienceConfig {
	cfg := hotc.ResilienceConfig{}
	if r.Defaults {
		cfg = hotc.DefaultResilience()
	}
	if r.MaxAcquireRetries != 0 {
		cfg.MaxAcquireRetries = r.MaxAcquireRetries
	}
	if r.RetryBackoffMs > 0 {
		cfg.RetryBackoff = time.Duration(r.RetryBackoffMs * float64(time.Millisecond))
	}
	if r.BackoffFactor > 0 {
		cfg.BackoffFactor = r.BackoffFactor
	}
	if r.BackoffMaxMs > 0 {
		cfg.BackoffMax = time.Duration(r.BackoffMaxMs * float64(time.Millisecond))
	}
	if r.BackoffJitter > 0 {
		cfg.BackoffJitter = r.BackoffJitter
	}
	if r.ExecRetries != 0 {
		cfg.ExecRetries = r.ExecRetries
	}
	if r.BreakerThreshold != 0 {
		cfg.BreakerThreshold = r.BreakerThreshold
	}
	if r.BreakerOpenSec > 0 {
		cfg.BreakerOpenFor = time.Duration(r.BreakerOpenSec * float64(time.Second))
	}
	return cfg
}

// ClusterSpec configures a multi-host run.
type ClusterSpec struct {
	// Nodes is the cluster size (default 3).
	Nodes int `json:"nodes,omitempty"`
	// Routing is warm|rr, hotc-router's placement policies (default
	// warm).
	Routing string `json:"routing,omitempty"`
}

// FunctionSpec declares one function.
type FunctionSpec struct {
	// Name at the gateway.
	Name string `json:"name"`
	// Image reference; defaults to the app's image.
	Image string `json:"image,omitempty"`
	// Network mode (default bridge).
	Network string `json:"network,omitempty"`
	// Env entries (KEY=VALUE).
	Env []string `json:"env,omitempty"`
	// App is a built-in application name: qr-<lang>, random-<lang>,
	// v3, tfapi, cassandra. Mutually exclusive with Profile.
	App string `json:"app,omitempty"`
	// Profile is a custom application cost profile. Mutually exclusive
	// with App.
	Profile *workload.Profile `json:"appProfile,omitempty"`
	// MaxConcurrency caps simultaneous executions (0 = unlimited).
	// Single-host runs only.
	MaxConcurrency int `json:"maxConcurrency,omitempty"`
}

// WorkloadSpec declares the request schedule.
type WorkloadSpec struct {
	// Kind is serial|parallel|linear|exp|burst|campus|csv.
	Kind string `json:"kind"`
	// Count is the request count (serial).
	Count int `json:"count,omitempty"`
	// Rounds is the round count (parallel/linear/exp/burst).
	Rounds int `json:"rounds,omitempty"`
	// Threads is the client thread count (parallel).
	Threads int `json:"threads,omitempty"`
	// Start and Step shape the linear pattern (defaults 2, +2).
	Start int `json:"start,omitempty"`
	Step  int `json:"step,omitempty"`
	// IntervalSec is the round interval (default 30).
	IntervalSec float64 `json:"intervalSec,omitempty"`
	// Decreasing reverses the exponential pattern.
	Decreasing bool `json:"decreasing,omitempty"`
	// Base/Factor/BurstRounds shape the burst pattern (defaults 8, 10,
	// [4 8 12 16]).
	Base        int   `json:"base,omitempty"`
	Factor      int   `json:"factor,omitempty"`
	BurstRounds []int `json:"burstRounds,omitempty"`
	// Minutes and Scale shape the campus trace.
	Minutes int     `json:"minutes,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	// File is the CSV schedule path (kind csv).
	File string `json:"file,omitempty"`
	// Parts compose a "mix" workload: each part is any non-mix pattern
	// whose requests are re-labelled with the part's class, then all
	// parts are merged onto one timeline. This models heterogeneous
	// tenants — e.g. a steady SLO-bound stream sharing the gateway
	// with an abusive burst.
	Parts []MixPart `json:"parts,omitempty"`
}

// MixPart is one component stream of a "mix" workload.
type MixPart struct {
	WorkloadSpec
	// Class labels every request of this part, mapping it onto
	// Functions[class % len(functions)].
	Class int `json:"class"`
}

// Parse reads a spec, rejecting unknown fields.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if len(s.Functions) == 0 {
		return fmt.Errorf("scenario: spec needs at least one function")
	}
	seen := map[string]bool{}
	for i, fn := range s.Functions {
		if fn.Name == "" {
			return fmt.Errorf("scenario: function %d needs a name", i)
		}
		if seen[fn.Name] {
			return fmt.Errorf("scenario: duplicate function name %q", fn.Name)
		}
		seen[fn.Name] = true
		if fn.App == "" && fn.Profile == nil {
			return fmt.Errorf("scenario: function %q needs app or appProfile", fn.Name)
		}
		if fn.App != "" && fn.Profile != nil {
			return fmt.Errorf("scenario: function %q has both app and appProfile", fn.Name)
		}
	}
	if s.Workload.Kind == "" {
		return fmt.Errorf("scenario: workload kind is required")
	}
	if s.Cluster != nil {
		// Nothing in a cluster run reads these; a spec that sets one
		// would quietly measure something else.
		switch {
		case s.Faults != nil || s.Resilience != nil:
			return fmt.Errorf("scenario: faults and resilience are single-host only")
		case s.Sharing:
			return fmt.Errorf("scenario: \"sharing\" is single-host only")
		case s.SharingIdleGraceSec != 0:
			return fmt.Errorf("scenario: \"sharingIdleGraceSec\" is single-host only")
		}
		for _, fn := range s.Functions {
			if fn.MaxConcurrency != 0 {
				return fmt.Errorf("scenario: function %q: \"maxConcurrency\" is single-host only", fn.Name)
			}
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.SharingIdleGraceSec < 0 {
		return fmt.Errorf("scenario: sharingIdleGraceSec must be >= 0")
	}
	if s.SharingIdleGraceSec > 0 && !s.Sharing {
		return fmt.Errorf("scenario: sharingIdleGraceSec requires \"sharing\": true")
	}
	return nil
}

// resolveApp maps a built-in app name to its App.
func resolveApp(name string) (hotc.App, error) {
	switch {
	case strings.HasPrefix(name, "qr-"):
		return hotc.AppQR(strings.TrimPrefix(name, "qr-"))
	case strings.HasPrefix(name, "random-"):
		return hotc.AppRandomNumber(strings.TrimPrefix(name, "random-"))
	case name == "v3":
		return hotc.AppV3(), nil
	case name == "tfapi":
		return hotc.AppTFAPI(), nil
	case name == "cassandra":
		return hotc.AppCassandra(), nil
	default:
		return hotc.App{}, fmt.Errorf("scenario: unknown app %q (want qr-<lang>, random-<lang>, v3, tfapi, cassandra)", name)
	}
}

func (w WorkloadSpec) build(classes int, seed int64) (hotc.Workload, error) {
	interval := time.Duration(w.IntervalSec * float64(time.Second))
	if interval <= 0 {
		interval = 30 * time.Second
	}
	orDefault := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	switch w.Kind {
	case "serial":
		return hotc.SerialWorkload(interval, orDefault(w.Count, 20)), nil
	case "parallel":
		return hotc.ParallelWorkload(orDefault(w.Threads, 10), orDefault(w.Rounds, 10), interval), nil
	case "linear":
		start := orDefault(w.Start, 2)
		step := w.Step
		if step == 0 {
			step = 2
		}
		return hotc.LinearWorkload(start, step, orDefault(w.Rounds, 10), interval), nil
	case "exp":
		return hotc.ExponentialWorkload(orDefault(w.Rounds, 7), interval, w.Decreasing), nil
	case "burst":
		bursts := w.BurstRounds
		if len(bursts) == 0 {
			bursts = []int{4, 8, 12, 16}
		}
		return hotc.BurstWorkload(orDefault(w.Base, 8), orDefault(w.Factor, 10),
			bursts, orDefault(w.Rounds, 18), interval), nil
	case "campus":
		scale := w.Scale
		if scale <= 0 {
			scale = 20
		}
		return hotc.CampusWorkload(seed, scale, orDefault(w.Minutes, 60), classes), nil
	case "mix":
		if len(w.Parts) == 0 {
			return nil, fmt.Errorf("scenario: mix workload needs parts")
		}
		var merged hotc.Workload
		for i, p := range w.Parts {
			if p.Kind == "mix" {
				return nil, fmt.Errorf("scenario: mix parts cannot nest")
			}
			part, err := p.WorkloadSpec.build(classes, seed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("scenario: mix part %d: %w", i, err)
			}
			for j := range part {
				part[j].Class = p.Class
			}
			merged = append(merged, part...)
		}
		sort.SliceStable(merged, func(a, b int) bool { return merged[a].At < merged[b].At })
		return merged, nil
	case "csv":
		if w.File == "" {
			return nil, fmt.Errorf("scenario: csv workload needs a file")
		}
		f, err := os.Open(w.File)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		defer f.Close()
		return hotc.ReadWorkloadCSV(f)
	default:
		return nil, fmt.Errorf("scenario: unknown workload kind %q", w.Kind)
	}
}

// Outcome is the result of a scenario run.
type Outcome struct {
	// Name echoes the spec name.
	Name string
	// Policy is the display name of the policy that ran.
	Policy string
	// Results are the per-request outcomes in schedule order (a cluster
	// run reports no Initiation or Faults).
	Results []hotc.RequestResult
	// Stats summarises the replay.
	Stats hotc.Stats
	// PerFunction breaks cold starts down by function.
	PerFunction map[string]FunctionOutcome
	// ServedByNode reports per-node request counts (cluster runs only).
	ServedByNode map[string]int

	// The rest is read off the single host at the end of the run; a
	// cluster run leaves it zero.

	// LiveContainers is the pool size.
	LiveContainers int
	// HostCPUPct and HostMemMB are the host monitor's readings.
	HostCPUPct, HostMemMB float64
	// Faults counts the injected faults (zero when the spec has none).
	Faults hotc.FaultStats
	// Resilience snapshots the gateway's retry/breaker/fallback
	// counters by name (empty when nothing fired).
	Resilience map[string]int
	// Metrics is the run's metrics registry.
	Metrics *obs.Registry
	// Spans holds one span per request (RunTraced only).
	Spans []obs.Span
}

// FunctionOutcome is the per-function breakdown.
type FunctionOutcome struct {
	Requests   int
	ColdStarts int
	MeanMS     float64
}

// deployment is what a spec runs on: one host or a cluster of them.
type deployment interface {
	Deploy(hotc.FunctionSpec) error
	Replay(hotc.Workload, func(class int) string) ([]hotc.RequestResult, error)
	Close()
	// report fills the outcome fields only this kind of deployment has.
	report(*Outcome)
}

type singleHost struct{ *hotc.Simulation }

func (d singleHost) report(out *Outcome) {
	out.Policy = d.PolicyName()
	out.LiveContainers = d.LiveContainers()
	out.HostCPUPct, out.HostMemMB = d.HostCPUPct(), d.HostMemMB()
	out.Faults = d.FaultStats()
	out.Resilience = d.ResilienceCounters()
	out.Metrics = d.Metrics()
	out.Spans = d.Spans()
}

type multiHost struct{ *hotc.ClusterSimulation }

func (d multiHost) Replay(w hotc.Workload, classFn func(int) string) ([]hotc.RequestResult, error) {
	routed, err := d.ClusterSimulation.Replay(w, classFn)
	if err != nil {
		return nil, err
	}
	results := make([]hotc.RequestResult, len(routed))
	for i, r := range routed {
		results[i] = hotc.RequestResult{
			Function: r.Function, Latency: r.Latency, Reused: r.Reused, Round: r.Round, Err: r.Err,
		}
	}
	return results, nil
}

func (d multiHost) report(out *Outcome) {
	out.Policy = fmt.Sprintf("hotc-cluster(%d nodes)", len(d.NodeNames()))
	out.ServedByNode = d.ServedByNode()
}

// deploy builds the deployment the spec names: a cluster when
// "cluster" is present (every node runs HotC), else a single host.
func (s *Spec) deploy(recordSpans bool) (deployment, error) {
	profile := hotc.Profile(s.Profile) // "" is the default, like every name below
	interval := time.Duration(s.ControlIntervalSec * float64(time.Second))
	if s.Cluster != nil {
		cs, err := hotc.NewClusterSimulation(hotc.ClusterConfig{
			Nodes:           s.Cluster.Nodes,
			Profile:         profile,
			Routing:         hotc.Routing(s.Cluster.Routing),
			Seed:            s.Seed,
			ControlInterval: interval,
			LocalImages:     true,
		})
		if err != nil {
			return nil, err
		}
		return multiHost{cs}, nil
	}
	cfg := hotc.Config{
		Profile:         profile,
		Policy:          hotc.Policy(s.Policy),
		Seed:            s.Seed,
		KeepAliveWindow: time.Duration(s.KeepAliveSec * float64(time.Second)),
		ControlInterval: interval,
		LocalImages:     true,
		Faults:          s.Faults,
		EnableSharing:   s.Sharing,
		ShareIdleGrace:  time.Duration(s.SharingIdleGraceSec * float64(time.Second)),
		RecordSpans:     recordSpans,
	}
	if s.Resilience != nil {
		rc := s.Resilience.config()
		cfg.Resilience = &rc
	}
	sim, err := hotc.NewSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return singleHost{sim}, nil
}

// Run executes the spec.
func (s *Spec) Run() (*Outcome, error) { return s.run(false) }

// RunTraced is Run with every request also recorded as a span
// (single-host runs only; spans cost memory proportional to the
// workload).
func (s *Spec) RunTraced() (*Outcome, error) { return s.run(true) }

func (s *Spec) run(recordSpans bool) (*Outcome, error) {
	d, err := s.deploy(recordSpans)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return s.play(d)
}

// play deploys the spec's functions on d and replays its workload.
func (s *Spec) play(d deployment) (*Outcome, error) {
	var err error
	names := make([]string, len(s.Functions))
	for i, fn := range s.Functions {
		var app hotc.App
		if fn.Profile != nil {
			app, err = fn.Profile.App()
		} else {
			app, err = resolveApp(fn.App)
		}
		if err != nil {
			return nil, err
		}
		image := fn.Image
		if image == "" {
			image = app.Image
		}
		err = d.Deploy(hotc.FunctionSpec{
			Name:           fn.Name,
			Runtime:        hotc.Runtime{Image: image, Network: fn.Network, Env: fn.Env},
			App:            app,
			MaxConcurrency: fn.MaxConcurrency,
		})
		if err != nil {
			return nil, err
		}
		names[i] = fn.Name
	}

	w, err := s.Workload.build(len(names), s.Seed)
	if err != nil {
		return nil, err
	}
	results, err := d.Replay(w, func(c int) string { return names[c%len(names)] })
	if err != nil {
		return nil, err
	}

	out := &Outcome{
		Name:        s.Name,
		Results:     results,
		Stats:       hotc.Summarize(results),
		PerFunction: make(map[string]FunctionOutcome),
	}
	d.report(out)
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		fo := out.PerFunction[r.Function]
		fo.Requests++
		if !r.Reused {
			fo.ColdStarts++
		}
		fo.MeanMS += float64(r.Latency) / float64(time.Millisecond) // the sum, until divided below
		out.PerFunction[r.Function] = fo
	}
	for name, fo := range out.PerFunction {
		fo.MeanMS /= float64(fo.Requests)
		out.PerFunction[name] = fo
	}
	return out, nil
}
