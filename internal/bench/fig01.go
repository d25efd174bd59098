package bench

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/faas"
	"hotc/internal/metrics"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// Fig01 reproduces the paper's Fig. 1 AWS Lambda study: a client sends
// one request per second for 10 seconds, waits 30 minutes, and
// repeats. Lambda-style fixed keep-alive (15 minutes) means the first
// request of every burst cold-starts, producing (a) the
// slowest-first-request pattern and (b) the long-tail latency CDF
// compared with a local function.
func Fig01(cycles int) *Report {
	if cycles <= 0 {
		cycles = 6
	}
	r := NewReport("fig01", "AWS Lambda request latency and cold-start long tail")
	env, app, results := fig01Replay(cycles)
	defer env.Close()

	// The paper measures at the client, through API Gateway over the
	// internet: the wire time is part of every sample and compresses
	// the cold/warm ratio (AWS's measured highest/lowest is only
	// 1.418x because the network and managed-platform floor is large
	// relative to Lambda's heavily optimised cold start).
	const clientRTT = 250 * time.Millisecond

	// (a) latency by position within the burst.
	posSeries := make([]metrics.Series, 10)
	var all metrics.Series
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		pos := res.Request.Round % 10
		lat := res.Timestamps.Total() + clientRTT
		posSeries[pos].AddDuration(lat)
		all.AddDuration(lat)
	}
	ta := r.NewTable("Fig. 1(a) mean latency by position within each 10-request burst",
		"position", "mean latency (ms)", "reused")
	for pos := range posSeries {
		reused := "yes"
		if pos == 0 {
			reused = "no (cold)"
		}
		ta.AddRow(fmt.Sprintf("%d", pos+1), msF(posSeries[pos].Mean()), reused)
	}

	highest := all.Max()
	lowest := all.Min()
	mean := all.Mean()
	r.Notef("highest/lowest latency = %.3f (paper: 1.418); highest/mean = %.3f (paper: 1.317)",
		highest/lowest, highest/mean)
	r.Notef("our simulated container cold start is a larger fraction of the request than AWS Lambda's snapshot-optimised one, so the spread is wider; the shape — first request of every burst slowest, long tail — is the paper's")

	// (b) latency CDF versus a local function call (no serverless
	// pipeline: just the function body).
	local := float64(env.Engine.Model().ExecCost(app.Exec)) / float64(time.Millisecond)
	tb := r.NewTable("Fig. 1(b) latency distribution: serverless vs local function",
		"percentile", "serverless (ms)", "local fn (ms)")
	for _, p := range []float64{50, 90, 95, 99, 99.9, 100} {
		tb.AddRow(fmt.Sprintf("p%g", p), msF(all.Percentile(p)), msF(local))
	}
	r.Notef("serverless p99/p50 = %.2f — the long tail the paper attributes to cold start; the local function is flat",
		all.Percentile(99)/all.Percentile(50))
	return r
}

// fig01Replay replays Fig. 1's schedule, cycles bursts of one request a
// second for 10 seconds each, 30 minutes apart, against a 15-minute
// keep-alive. It returns the environment, which the caller closes, the
// function and the results.
func fig01Replay(cycles int) (*Env, workload.App, []faas.Result) {
	env := NewEnv(PolicyKeepAlive, EnvOptions{Seed: 101, KeepAliveWindow: 15 * time.Minute, PrePull: true})
	app := workload.RandomNumber(workload.Python)
	if err := env.Deploy("rand", config.Runtime{Image: "python:3.8"}, app); err != nil {
		panic(err)
	}
	var schedule []trace.Request
	at := time.Duration(0)
	for c := 0; c < cycles; c++ {
		for i := 0; i < 10; i++ {
			schedule = append(schedule, trace.Request{At: at, Round: c*10 + i})
			at += time.Second
		}
		at += 30 * time.Minute
	}
	results, err := env.Replay(schedule, singleClass("rand"))
	if err != nil {
		panic(err)
	}
	return env, app, results
}
