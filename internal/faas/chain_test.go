package faas

import (
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// deployStage registers one pipeline stage function.
func (f *fixture) deployStage(t *testing.T, name, img string, lang workload.Language) {
	t.Helper()
	fn := Function{
		Name:    name,
		Runtime: config.Runtime{Image: img, Env: []string{"STAGE=" + name}},
		App:     workload.QRApp(lang),
	}
	resolver := ResolverFunc(func(rt config.Runtime) (*container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(fn, resolver); err != nil {
		t.Fatal(err)
	}
}

func pipelineStages(t *testing.T, f *fixture) []string {
	f.deployStage(t, "upload", "python:3.8", workload.Python)
	f.deployStage(t, "compress", "python:3.8", workload.Python)
	f.deployStage(t, "watermark", "node:10", workload.Node)
	f.deployStage(t, "persist", "golang:1.12", workload.Go)
	return []string{"upload", "compress", "watermark", "persist"}
}

func TestChainExecutesAllStagesInOrder(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	stages := pipelineStages(t, f)
	results, err := RunChain(f.gw, []trace.Request{{At: 0}}, stages)
	if err != nil {
		t.Fatal(err)
	}
	cr := results[0]
	if cr.Err != nil {
		t.Fatal(cr.Err)
	}
	if len(cr.Stages) != 4 {
		t.Fatalf("stages = %d", len(cr.Stages))
	}
	for i, s := range cr.Stages {
		if s.Function != stages[i] {
			t.Fatalf("stage %d served by %q, want %q", i, s.Function, stages[i])
		}
		if i > 0 && s.Timestamps.GatewayIn < cr.Stages[i-1].Timestamps.ClientOut {
			t.Fatal("stages overlap; chain must be sequential")
		}
	}
	if cr.Total() <= 0 {
		t.Fatal("non-positive total")
	}
	// All four stages cold on the first traversal.
	if cr.ColdStages() != 4 {
		t.Fatalf("cold stages = %d, want 4", cr.ColdStages())
	}
}

func TestChainReusesOnRevisit(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	stages := pipelineStages(t, f)
	sched := trace.Serial{Interval: time.Minute, Count: 3}.Generate()
	results, err := RunChain(f.gw, sched, stages)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ColdStages() != 4 {
		t.Fatalf("first traversal cold stages = %d", results[0].ColdStages())
	}
	for i, cr := range results[1:] {
		if cr.ColdStages() != 0 {
			t.Fatalf("traversal %d cold stages = %d, want 0", i+1, cr.ColdStages())
		}
	}
	// Warm chains are much faster.
	if results[2].Total() > results[0].Total()/2 {
		t.Fatalf("warm chain %v not clearly below cold %v", results[2].Total(), results[0].Total())
	}
}

func TestChainStageFailureStopsPipeline(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	stages := pipelineStages(t, f)
	// Unknown function in the middle.
	broken := []string{stages[0], "ghost", stages[2]}
	results, err := RunChain(f.gw, []trace.Request{{At: 0}}, broken)
	if err != nil {
		t.Fatal(err)
	}
	cr := results[0]
	if cr.Err == nil {
		t.Fatal("broken chain succeeded")
	}
	if len(cr.Stages) != 2 { // upload ok, ghost errored
		t.Fatalf("stages recorded = %d, want 2", len(cr.Stages))
	}
}

func TestChainEmpty(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	var got ChainResult
	f.gw.HandleChain(nil, trace.Request{}, func(cr ChainResult) { got = cr })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Err == nil {
		t.Fatal("empty chain accepted")
	}
	if got.Total() != 0 || got.ColdStages() != 0 {
		t.Fatal("empty chain should report zeros")
	}
}

func TestChainConcurrentTraversals(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	stages := pipelineStages(t, f)
	// Three chains start at the same instant; stage containers cannot
	// be shared between in-flight traversals, so each gets its own.
	sched := []trace.Request{{At: 0}, {At: 0}, {At: 0}}
	results, err := RunChain(f.gw, sched, stages)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range results {
		if cr.Err != nil {
			t.Fatalf("chain %d: %v", i, cr.Err)
		}
		if len(cr.Stages) != 4 {
			t.Fatalf("chain %d stages = %d", i, len(cr.Stages))
		}
	}
}
