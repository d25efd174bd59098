// Package hotc is the public API of the HotC reproduction: a
// container-based runtime management framework that mitigates
// serverless cold start by reusing live container runtimes, with
// adaptive pool control combining exponential smoothing and a Markov
// chain (Suo et al., "Tackling Cold Start of Serverless Applications
// by Efficient and Adaptive Container Runtime Reusing", IEEE CLUSTER
// 2021).
//
// The package exposes three layers:
//
//   - Parameter analysis: ParseCommand / ParseConfigFile turn a docker
//     run-style command or a JSON file into a canonical runtime Key
//     (§IV.B of the paper).
//   - Prediction: NewPredictor returns the combined ES+Markov demand
//     forecaster of §IV.C; NewExponentialSmoothing and NewMarkovChain
//     expose its parts for ablation.
//   - Simulation: NewSimulation wires the full serverless substrate —
//     container engine, image registry, OpenFaaS-style gateway, HotC
//     middleware or a baseline policy — over a deterministic virtual
//     clock, so workloads replay reproducibly on server or edge
//     hardware profiles.
package hotc

import (
	"fmt"
	"io"
	"time"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/faults"
	"hotc/internal/metrics"
	"hotc/internal/obs"
	"hotc/internal/pool"
	"hotc/internal/predictor"
	"hotc/internal/rng"
	"hotc/internal/stack"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// Runtime is a container runtime configuration: the unit of identity
// for reuse decisions.
type Runtime = config.Runtime

// Key is the canonical formatted runtime configuration used to index
// the live container pool.
type Key = config.Key

// ParseCommand parses a docker-run-style argument vector into a
// Runtime (the paper's Parameter Analysis step).
func ParseCommand(args []string) (Runtime, error) { return config.ParseCommand(args) }

// ParseConfigFile parses a JSON runtime configuration file.
func ParseConfigFile(data []byte) (Runtime, error) { return config.ParseFile(data) }

// Predictor forecasts next-interval container demand from per-interval
// observations.
type Predictor = predictor.Predictor

// NewPredictor returns HotC's combined ES+Markov predictor with the
// paper's parameters (α = 0.8, initial value = mean of the first five
// observations, Markov correction over error region states).
func NewPredictor() Predictor { return predictor.Default() }

// NewExponentialSmoothing returns the Eq. 1 predictor alone.
func NewExponentialSmoothing(alpha float64) Predictor { return predictor.NewES(alpha) }

// NewMarkovChain returns the Eq. 2 region-state predictor alone, with
// n region states.
func NewMarkovChain(n int) Predictor { return predictor.NewMarkov(n) }

// Profile selects the simulated hardware.
type Profile string

// The hardware profiles from the paper's testbed (§V.A).
const (
	// ProfileServer is the Dell PowerEdge T430 (20 cores, 64 GB).
	ProfileServer Profile = "server"
	// ProfileEdgePi is the Raspberry Pi 3 (4 cores, 1 GB).
	ProfileEdgePi Profile = "edge-pi"
)

// Policy selects the runtime management strategy.
type Policy string

// The available strategies: HotC plus the industry baselines of §III.B.
const (
	// PolicyHotC is the paper's contribution: pooled reuse with
	// adaptive ES+Markov control.
	PolicyHotC Policy = "hotc"
	// PolicyCold is the default serverless behaviour: a fresh
	// container per request.
	PolicyCold Policy = "cold"
	// PolicyKeepAlive retains containers for a fixed window after use
	// (AWS-style).
	PolicyKeepAlive Policy = "keepalive"
	// PolicyWarmup adds periodic warm-up pings (Azure Logic-style).
	PolicyWarmup Policy = "warmup"
	// PolicyHistogram adapts the keep-alive window per runtime type
	// from observed inter-arrival times.
	PolicyHistogram Policy = "histogram"
)

// Config configures a Simulation.
type Config struct {
	// Profile is the hardware profile (default ProfileServer).
	Profile Profile
	// Policy is the runtime management strategy (default PolicyHotC).
	Policy Policy
	// Seed drives latency jitter; 0 means a noiseless simulation.
	Seed int64
	// KeepAliveWindow tunes PolicyKeepAlive/PolicyWarmup (default 15m).
	KeepAliveWindow time.Duration
	// ControlInterval is HotC's control-loop period (default 10s).
	ControlInterval time.Duration
	// MaxLiveContainers caps the pool (default 500, the paper's value).
	MaxLiveContainers int
	// MemoryThresholdPct is the eviction threshold (default 80).
	MemoryThresholdPct float64
	// EnableRelaxedMatching turns on §VII fuzzy-key reuse.
	EnableRelaxedMatching bool
	// EnableSharing turns on Pagurus-style inter-function sharing: on a
	// pool miss, an idle container of another runtime key is wiped and
	// re-keyed as a zygote for the requested spec instead of paying a
	// full cold start.
	EnableSharing bool
	// ShareIdleGrace keeps containers off the lending market until they
	// have sat idle this long, so renters only take genuine surplus and
	// never steal a busy function's working set (zero = no grace).
	ShareIdleGrace time.Duration
	// LocalImages pre-pulls the catalog into the layer cache, matching
	// the paper's locally-stored images (default true behaviour is
	// opt-in via this flag).
	LocalImages bool
	// Faults, when non-nil, attaches a deterministic fault injector to
	// the engine: failed creates, exec crashes, silent container
	// corruption and slow starts, at per-runtime-key rates with burst
	// windows. See FaultsConfig.
	Faults *FaultsConfig
	// Resilience, when non-nil, arms the gateway's full resilience
	// machinery (exponential-backoff retries, exec fallback, per-key
	// circuit breaking). Nil keeps the seed behaviour: one linear
	// retry, no breaker. Use DefaultResilience for sane chaos defaults.
	Resilience *ResilienceConfig
	// RecordSpans attaches a span tracer to the gateway: every request
	// is recorded as a structured span over the §III.A timestamps,
	// retrievable via Simulation.Spans. Off by default (spans cost
	// memory proportional to the workload).
	RecordSpans bool
}

// FaultsConfig specifies injected faults; it is JSON-serialisable and
// embeddable in scenario files.
type FaultsConfig = faults.Config

// FaultRule sets fault rates for the runtime keys it matches.
type FaultRule = faults.Rule

// FaultBurst is a virtual-time window multiplying a rule's rates.
type FaultBurst = faults.Burst

// FaultStats counts injected faults per kind.
type FaultStats = faults.Stats

// ResilienceConfig tunes how the gateway absorbs faults.
type ResilienceConfig struct {
	// MaxAcquireRetries bounds retries of a failed runtime acquisition.
	MaxAcquireRetries int
	// RetryBackoff is the delay before the first retry and the base of
	// the exponential schedule.
	RetryBackoff time.Duration
	// BackoffFactor grows the delay per attempt.
	BackoffFactor float64
	// BackoffMax caps the retry delay.
	BackoffMax time.Duration
	// BackoffJitter spreads delays by the given fraction (seeded from
	// Config.Seed) to avoid retry lockstep.
	BackoffJitter float64
	// ExecRetries bounds transparent fallbacks after a failed
	// execution: the suspect container is quarantined and a fresh one
	// acquired.
	ExecRetries int
	// BreakerThreshold trips a per-runtime-key circuit breaker after
	// this many consecutive acquire failures; while open, requests
	// degrade to dedicated cold starts instead of erroring. 0 disables.
	BreakerThreshold int
	// BreakerOpenFor is the open window before a half-open probe.
	BreakerOpenFor time.Duration
}

// DefaultResilience is the recommended chaos-ready tuning: four
// acquire retries from 50ms doubling to 2s with 20% jitter, two exec
// fallbacks, and a breaker tripping after five consecutive failures
// with a 30s open window.
func DefaultResilience() ResilienceConfig {
	return ResilienceConfig{
		MaxAcquireRetries: 4,
		RetryBackoff:      50 * time.Millisecond,
		BackoffFactor:     2,
		BackoffMax:        2 * time.Second,
		BackoffJitter:     0.2,
		ExecRetries:       2,
		BreakerThreshold:  5,
		BreakerOpenFor:    30 * time.Second,
	}
}

// FunctionSpec describes a function to deploy.
type FunctionSpec struct {
	// Name is the gateway-visible function name.
	Name string
	// Runtime is the container configuration it executes in.
	Runtime Runtime
	// App is the workload model; use one of the App constructors.
	App App
	// MaxConcurrency caps simultaneous executions; excess requests
	// queue FIFO at the gateway (0 = unlimited).
	MaxConcurrency int
}

// App models a serverless application's cost profile.
type App = workload.App

// The paper's evaluation applications.
var (
	// AppV3 is the Python inception-v3 image recognition app (Fig. 8).
	AppV3 = workload.V3App
	// AppTFAPI is the Go TensorFlow-API image recognition app (Fig. 8).
	AppTFAPI = workload.TFAPIApp
	// AppCassandra is the heavy JVM database of Fig. 15(b).
	AppCassandra = workload.Cassandra
)

// AppQR returns the Fig. 9 URL-to-QR web function in the given
// language ("go", "python", "node", "java").
func AppQR(language string) (App, error) {
	l, err := parseLanguage(language)
	if err != nil {
		return App{}, err
	}
	return workload.QRApp(l), nil
}

// AppRandomNumber returns the trivial random-number backend of Fig. 1.
func AppRandomNumber(language string) (App, error) {
	l, err := parseLanguage(language)
	if err != nil {
		return App{}, err
	}
	return workload.RandomNumber(l), nil
}

func parseLanguage(s string) (workload.Language, error) {
	for _, l := range workload.Languages() {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("hotc: unknown language %q (want go/python/node/java)", s)
}

// RequestResult is the outcome of one replayed request.
type RequestResult struct {
	// Function that served the request.
	Function string
	// Latency is the end-to-end client-observed latency.
	Latency time.Duration
	// Initiation is the cold-start component (watchdog-in to
	// function-start).
	Initiation time.Duration
	// Reused reports whether a live container runtime was reused.
	Reused bool
	// Round is the trace round the request belonged to.
	Round int
	// Err is non-nil if the request failed.
	Err error
	// Faults counts the resilience events (acquire retries, exec
	// fallbacks, quarantines, breaker transitions, degraded cold
	// starts) the request went through; 0 for an untroubled request.
	Faults int
}

// Simulation is a deterministic serverless deployment: engine,
// gateway, policy and host monitor over a virtual clock.
type Simulation struct {
	st     *stack.Stack
	obsReg *obs.Registry
	tracer *obs.Tracer
}

// lower maps the public profile name onto the cost model's profile.
func (p Profile) lower() (costmodel.Profile, error) {
	switch p {
	case "", ProfileServer:
		return costmodel.Server(), nil
	case ProfileEdgePi:
		return costmodel.EdgePi(), nil
	default:
		return costmodel.Profile{}, fmt.Errorf("hotc: unknown profile %q", p)
	}
}

// NewSimulation wires a Simulation from the Config.
func NewSimulation(cfg Config) (*Simulation, error) {
	prof, err := cfg.Profile.lower()
	if err != nil {
		return nil, err
	}
	// The registry is always on: metrics are cheap (a few map lookups
	// per request) and every run can dump them for offline analysis.
	s := &Simulation{obsReg: obs.New()}
	if cfg.RecordSpans {
		s.tracer = obs.NewTracer()
	}
	s.st, err = stack.New(stack.Options{
		Profile:         prof,
		Seed:            cfg.Seed,
		PrePull:         cfg.LocalImages,
		Policy:          stack.Policy(cfg.Policy),
		KeepAliveWindow: cfg.KeepAliveWindow,
		Core: core.Options{
			Interval: cfg.ControlInterval,
			Pool: pool.Options{
				MaxLive:         cfg.MaxLiveContainers,
				MemThresholdPct: cfg.MemoryThresholdPct,
				EnableRelaxed:   cfg.EnableRelaxedMatching,
				EnableSharing:   cfg.EnableSharing,
				ShareIdleGrace:  cfg.ShareIdleGrace,
			},
		},
		Faults:  cfg.Faults,
		Metrics: s.obsReg,
		Tracer:  s.tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("hotc: %w", err)
	}
	if r := cfg.Resilience; r != nil {
		gw := s.st.Gateway
		gw.MaxAcquireRetries = r.MaxAcquireRetries
		if r.RetryBackoff > 0 {
			gw.RetryBackoff = r.RetryBackoff
		}
		gw.BackoffFactor = r.BackoffFactor
		gw.BackoffMax = r.BackoffMax
		gw.BackoffJitter = r.BackoffJitter
		if r.BackoffJitter > 0 {
			gw.BackoffRng = rng.New(cfg.Seed).Split("gateway-backoff")
		}
		gw.ExecRetries = r.ExecRetries
		gw.BreakerThreshold = r.BreakerThreshold
		gw.BreakerOpenFor = r.BreakerOpenFor
	}
	return s, nil
}

// Deploy registers a function with the gateway (and with HotC's
// adaptive controller when running PolicyHotC).
func (s *Simulation) Deploy(fn FunctionSpec) error {
	return s.st.Deploy(faas.Function{
		Name: fn.Name, Runtime: fn.Runtime, App: fn.App,
		MaxConcurrency: fn.MaxConcurrency,
	})
}

// Workload is a request schedule; build one with the pattern
// constructors below.
type Workload = []trace.Request

// The paper's request patterns (§V.D).
func SerialWorkload(interval time.Duration, count int) Workload {
	return trace.Serial{Interval: interval, Count: count}.Generate()
}

// ParallelWorkload emits rounds of simultaneous requests from threads
// client threads; thread i sends class-i requests.
func ParallelWorkload(threads, rounds int, interval time.Duration) Workload {
	return trace.Parallel{Threads: threads, Interval: interval, Rounds: rounds}.Generate()
}

// LinearWorkload ramps the per-round request count by step.
func LinearWorkload(start, step, rounds int, interval time.Duration) Workload {
	return trace.Linear{Start: start, Step: step, Rounds: rounds, Interval: interval}.Generate()
}

// ReadWorkloadCSV parses a workload from CSV with an
// "at_ms,class,round" header, so measured traces can be replayed.
func ReadWorkloadCSV(r io.Reader) (Workload, error) { return trace.ReadCSV(r) }

// WriteWorkloadCSV writes a workload as CSV.
func WriteWorkloadCSV(w io.Writer, workload Workload) error { return trace.WriteCSV(w, workload) }

// ExponentialWorkload emits 2^i requests at round i (reversed when
// decreasing).
func ExponentialWorkload(rounds int, interval time.Duration, decreasing bool) Workload {
	return trace.Exponential{Rounds: rounds, Interval: interval, Decreasing: decreasing}.Generate()
}

// BurstWorkload sends base requests per round with factor-times bursts
// at the given rounds.
func BurstWorkload(base, factor int, burstRounds []int, rounds int, interval time.Duration) Workload {
	return trace.Burst{Base: base, Factor: factor, BurstRounds: burstRounds, Rounds: rounds, Interval: interval}.Generate()
}

// CampusWorkload synthesises the Fig. 11 diurnal YouTube trace, scaled
// down by scale, for the given number of minutes.
func CampusWorkload(seed int64, scale float64, minutes, classes int) Workload {
	return trace.Campus{Seed: seed, Scale: scale, Minutes: minutes, Classes: classes}.Generate()
}

// Replay runs the workload against the deployment. classFn maps a
// request class to a deployed function name; pass nil when a single
// function serves everything (the first deployed name is used).
func (s *Simulation) Replay(w Workload, classFn func(class int) string) ([]RequestResult, error) {
	if classFn == nil {
		names := s.st.Gateway.Functions()
		if len(names) == 0 {
			return nil, fmt.Errorf("hotc: no functions deployed")
		}
		classFn = func(int) string { return names[0] }
	}
	raw, err := faas.Run(s.st.Gateway, w, classFn)
	if err != nil {
		return nil, err
	}
	out := make([]RequestResult, len(raw))
	for i, r := range raw {
		out[i] = RequestResult{
			Function:   r.Function,
			Latency:    r.Timestamps.Total(),
			Initiation: r.Timestamps.Initiation(),
			Reused:     r.Reused,
			Round:      r.Request.Round,
			Err:        r.Err,
			Faults:     len(r.Faults),
		}
	}
	return out, nil
}

// ChainResult is the outcome of one request through a function chain
// (the paper's Fig. 3a image-processing pipeline scenario).
type ChainResult struct {
	// Latency is the end-to-end latency across all stages.
	Latency time.Duration
	// ColdStages counts stages that did not reuse a runtime.
	ColdStages int
	// Stages is the number of completed stages.
	Stages int
	// Round is the trace round.
	Round int
	// Err is the first stage failure, if any.
	Err error
}

// ReplayChain runs the workload where every request traverses the
// named functions in order, each stage's output triggering the next.
func (s *Simulation) ReplayChain(w Workload, stages []string) ([]ChainResult, error) {
	raw, err := faas.RunChain(s.st.Gateway, w, stages)
	if err != nil {
		return nil, err
	}
	out := make([]ChainResult, len(raw))
	for i, cr := range raw {
		out[i] = ChainResult{
			Latency:    cr.Total(),
			ColdStages: cr.ColdStages(),
			Stages:     len(cr.Stages),
			Round:      cr.Request.Round,
			Err:        cr.Err,
		}
	}
	return out, nil
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.st.Sched.Now() }

// AdvanceTime runs the simulation forward by d with no new requests
// (background control loops keep running).
func (s *Simulation) AdvanceTime(d time.Duration) { s.st.Sched.Sleep(d) }

// LiveContainers reports the number of live containers.
func (s *Simulation) LiveContainers() int { return s.st.Engine.Live() }

// HostCPUPct and HostMemMB report current host resource usage.
func (s *Simulation) HostCPUPct() float64 { return s.st.Host.UsedCPUPct() }

// HostMemMB reports current host memory usage in MB.
func (s *Simulation) HostMemMB() float64 { return s.st.Host.UsedMemMB() }

// PolicyName reports the active policy's display name.
func (s *Simulation) PolicyName() string { return s.st.Provider.Name() }

// FaultStats reports the injected-fault counters; zero when the
// simulation runs without a fault config.
func (s *Simulation) FaultStats() FaultStats {
	if s.st.Faults == nil {
		return FaultStats{}
	}
	return s.st.Faults.Stats()
}

// Metrics exposes the simulation's metrics registry: request
// latency/queue/acquire histograms, pool occupancy gauges, controller
// series. Dump it with WritePrometheus or WriteJSONL.
func (s *Simulation) Metrics() *obs.Registry { return s.obsReg }

// Spans returns the recorded request spans (empty unless
// Config.RecordSpans was set).
func (s *Simulation) Spans() []obs.Span {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Spans()
}

// ResilienceCounters snapshots the gateway's resilience accounting:
// acquire retries, exec fallbacks, quarantines, breaker trips/closes,
// degraded requests and failed requests, keyed by counter name.
func (s *Simulation) ResilienceCounters() map[string]int {
	return s.st.Gateway.ResilienceCounters().Snapshot()
}

// Close stops background machinery (HotC's control loop, warm-up
// pingers).
func (s *Simulation) Close() { s.st.Close() }

// Stats summarises a replay. Requests counts successful requests
// only; failed ones are tallied in Errors.
type Stats struct {
	Requests   int
	ColdStarts int
	Reused     int
	Errors     int
	MeanMS     float64
	P99MS      float64
	MaxMS      float64
}

// Summarize computes aggregate statistics over results.
func Summarize(results []RequestResult) Stats {
	var st Stats
	var lat metrics.Series
	for _, r := range results {
		if r.Err != nil {
			st.Errors++
			continue
		}
		st.Requests++
		if r.Reused {
			st.Reused++
		} else {
			st.ColdStarts++
		}
		lat.AddDuration(r.Latency)
	}
	if st.Requests == 0 {
		return st
	}
	st.MeanMS = lat.Mean()
	st.P99MS = lat.P99()
	st.MaxMS = lat.Max()
	return st
}
