package faas

import (
	"fmt"
	"time"

	"hotc/internal/trace"
)

// ChainResult is the outcome of one request through a function chain.
type ChainResult struct {
	// Request is the originating trace entry.
	Request trace.Request
	// Stages holds the per-function results in execution order; on
	// failure it contains the stages completed before the error.
	Stages []Result
	// Err is the first stage error, if any.
	Err error
}

// Total is the end-to-end latency across all stages.
func (cr ChainResult) Total() time.Duration {
	if len(cr.Stages) == 0 {
		return 0
	}
	first := cr.Stages[0].Timestamps.GatewayIn
	last := cr.Stages[len(cr.Stages)-1].Timestamps.ClientOut
	return last - first
}

// ColdStages counts stages that did not reuse a runtime.
func (cr ChainResult) ColdStages() int {
	n := 0
	for _, s := range cr.Stages {
		if s.Err == nil && !s.Reused {
			n++
		}
	}
	return n
}

// HandleChain drives a request through a pipeline of functions — the
// paper's Fig. 3(a) scenario (upload -> compress -> watermark ->
// persist): each stage's response triggers the next stage through the
// gateway. Every stage resolves its own runtime, so a chain of n
// functions can pay up to n cold starts without reuse.
func (g *Gateway) HandleChain(stages []string, req trace.Request, done func(ChainResult)) {
	if done == nil {
		panic("faas: HandleChain requires a completion callback")
	}
	if len(stages) == 0 {
		done(ChainResult{Request: req, Err: fmt.Errorf("faas: empty chain")})
		return
	}
	cr := ChainResult{Request: req}
	var next func(i int)
	next = func(i int) {
		if i >= len(stages) {
			done(cr)
			return
		}
		g.Handle(stages[i], req, func(r Result) {
			cr.Stages = append(cr.Stages, r)
			if r.Err != nil {
				cr.Err = fmt.Errorf("faas: chain stage %d (%s): %w", i, stages[i], r.Err)
				done(cr)
				return
			}
			next(i + 1)
		})
	}
	next(0)
}

// RunChain replays a schedule where every request traverses the whole
// chain. Results are in schedule order.
func RunChain(g *Gateway, schedule []trace.Request, stages []string) ([]ChainResult, error) {
	out := make([]ChainResult, len(schedule))
	pending := len(schedule)
	err := Replay(g.sched, schedule, &pending, func(i int, req trace.Request) {
		g.HandleChain(stages, req, func(cr ChainResult) {
			out[i] = cr
			pending--
		})
	})
	if err == nil {
		err = g.settle()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
