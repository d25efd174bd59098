package hotc

// One testing.B benchmark per figure of the paper's evaluation. Each
// benchmark regenerates the corresponding figure's data via the
// internal bench drivers and reports a headline metric from it as a
// custom benchmark unit, so `go test -bench=.` doubles as the
// reproduction harness (cmd/hotc-bench prints the full tables).

import (
	"runtime"
	"testing"
	"time"

	"hotc/internal/bench"
	"hotc/internal/metrics"
	"hotc/internal/predictor"
	"hotc/internal/rng"
	"hotc/internal/trace"
)

// reportNote attaches the first figure note to the benchmark output.
func runFigure(b *testing.B, fn func() *bench.Report) *bench.Report {
	b.Helper()
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		rep = fn()
	}
	if rep == nil || len(rep.Tables) == 0 {
		b.Fatal("figure produced no tables")
	}
	return rep
}

func BenchmarkFig01LambdaColdStart(b *testing.B) {
	rep := runFigure(b, func() *bench.Report { return bench.Fig01(6) })
	_ = rep
}

func BenchmarkFig02DockerfileCorpus(b *testing.B) {
	runFigure(b, func() *bench.Report { return bench.Fig02(2000) })
}

func BenchmarkFig04Startup(b *testing.B) {
	runFigure(b, bench.Fig04)
}

func BenchmarkFig05Breakdown(b *testing.B) {
	runFigure(b, bench.Fig05)
}

func BenchmarkFig08ImageRecognition(b *testing.B) {
	runFigure(b, bench.Fig08)
}

func BenchmarkFig09WebLatency(b *testing.B) {
	runFigure(b, func() *bench.Report { return bench.Fig09(40) })
}

func BenchmarkFig10Prediction(b *testing.B) {
	runFigure(b, bench.Fig10)
}

func BenchmarkFig11CampusTrace(b *testing.B) {
	runFigure(b, bench.Fig11)
}

func BenchmarkFig12SerialParallel(b *testing.B) {
	runFigure(b, bench.Fig12)
}

func BenchmarkFig13Linear(b *testing.B) {
	runFigure(b, bench.Fig13)
}

func BenchmarkFig14ExpBurst(b *testing.B) {
	runFigure(b, bench.Fig14)
}

func BenchmarkFig15Overhead(b *testing.B) {
	runFigure(b, bench.Fig15)
}

func BenchmarkAblations(b *testing.B) {
	runFigure(b, bench.Ablations)
}

func BenchmarkPolicyShootout(b *testing.B) {
	runFigure(b, bench.PolicyShootout)
}

func BenchmarkClusterStudy(b *testing.B) {
	runFigure(b, bench.ClusterStudy)
}

func BenchmarkRelatedWork(b *testing.B) {
	runFigure(b, bench.RelatedWork)
}

// Micro-benchmarks of the hot paths, reported with allocations.

func BenchmarkPredictorCombined(b *testing.B) {
	src := rng.New(1)
	series := make([]float64, 512)
	for i := range series {
		series[i] = float64(src.Intn(40))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := predictor.Default()
		for _, v := range series {
			p.Observe(v)
			_ = p.Predict()
		}
	}
}

func BenchmarkRuntimeKeyDerivation(b *testing.B) {
	rt := Runtime{
		Image:   "python:3.8",
		Network: "bridge",
		Env:     []string{"A=1", "B=2", "C=3"},
		Volumes: []string{"/data:/data"},
		Cmd:     []string{"python", "app.py"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Key()
	}
}

func BenchmarkGatewayThroughputWarm(b *testing.B) {
	// End-to-end simulated requests per benchmark op, steady warm
	// state under HotC.
	sim, err := NewSimulation(Config{Policy: PolicyHotC, LocalImages: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	app, err := AppQR("python")
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Deploy(FunctionSpec{Name: "qr", Runtime: Runtime{Image: "python:3.8"}, App: app}); err != nil {
		b.Fatal(err)
	}
	// Warm up.
	if _, err := sim.Replay(SerialWorkload(time.Second, 2), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replay(SerialWorkload(time.Second, 1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampusReplay is the harness's sim_campus workload as a
// testing.B: one op replays a day of the campus trace through a fresh
// four-key HotC simulation. The per-request units are the simulator's
// budget (CHANGES.md carries the itemised before/after).
func BenchmarkCampusReplay(b *testing.B) {
	w := CampusWorkload(1, 1.0, 0, 4)
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if _, err := newCampusSim(b, 0).Replay(w, campusClassFn); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	reqs := float64(b.N * len(w))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/reqs, "B/req")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/req")
}

func BenchmarkCampusTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = trace.Campus{Seed: 1, Scale: 10}.Generate()
	}
}

func BenchmarkSeriesPercentile(b *testing.B) {
	src := rng.New(2)
	var s metrics.Series
	for i := 0; i < 10000; i++ {
		s.Add(src.Float64() * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(src.Float64() * 1000) // force re-sort
		_ = s.Percentile(99)
	}
}
