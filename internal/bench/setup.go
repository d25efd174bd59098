package bench

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/faas"
	"hotc/internal/stack"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// PolicyKind selects the runtime-management strategy under test.
type PolicyKind string

// The policies every experiment can run under.
const (
	PolicyCold      PolicyKind = "default"
	PolicyHotC      PolicyKind = "hotc"
	PolicyKeepAlive PolicyKind = "keepalive"
	PolicyWarmup    PolicyKind = "warmup"
	PolicyHistogram PolicyKind = "histogram"
)

// stackPolicy lowers the kind; the kind's own string is the label the
// tables print ("default" is the paper's name for no reuse).
var stackPolicy = map[PolicyKind]stack.Policy{
	PolicyCold:      stack.Cold,
	PolicyHotC:      stack.HotC,
	PolicyKeepAlive: stack.KeepAlive,
	PolicyWarmup:    stack.Warmup,
	PolicyHistogram: stack.Histogram,
}

// Env is a fully wired simulation environment: scheduler, engine,
// gateway, provider and host monitor on one hardware profile.
type Env struct{ *stack.Stack }

// EnvOptions tune environment construction: the builder's own options,
// of which NewEnv fills in the policy and the armed observability.
type EnvOptions = stack.Options

// NewEnv builds an environment running the given policy, instrumented
// into whatever EnableObservability armed.
func NewEnv(kind PolicyKind, opts EnvOptions) *Env {
	var ok bool
	if opts.Policy, ok = stackPolicy[kind]; !ok {
		panic(fmt.Sprintf("bench: unknown policy %q", kind))
	}
	opts.Metrics, opts.Tracer = obsReg, obsTracer
	st, err := stack.New(opts)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return &Env{st}
}

// Deploy registers a function at the gateway (and with HotC's
// controller when running HotC).
func (e *Env) Deploy(name string, rt config.Runtime, app workload.App) error {
	return e.Stack.Deploy(faas.Function{Name: name, Runtime: rt, App: app})
}

// Replay runs a request schedule against the gateway.
func (e *Env) Replay(schedule []trace.Request, classFn func(int) string) ([]faas.Result, error) {
	return faas.Run(e.Gateway, schedule, classFn)
}

// meanTotalMS computes the mean end-to-end latency in milliseconds of
// the successful results, optionally filtered.
func meanTotalMS(results []faas.Result, keep func(faas.Result) bool) float64 {
	sum, n := 0.0, 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if keep != nil && !keep(r) {
			continue
		}
		sum += float64(r.Timestamps.Total()) / float64(time.Millisecond)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// singleClass maps every request class to one function name.
func singleClass(name string) func(int) string {
	return func(int) string { return name }
}
