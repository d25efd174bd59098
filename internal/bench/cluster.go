package bench

import (
	"fmt"
	"time"

	"hotc/internal/cluster"
	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/kernel"
	"hotc/internal/metrics"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// ClusterStudy evaluates the §VII multi-host extension: hotc-router's
// placement policies over a 4-node cluster under (a) low-rate serial traffic
// where reuse is everything, (b) skewed popular-function traffic where
// both reuse and load balance matter, and (c) a node failure mid-run.
func ClusterStudy() *Report {
	r := NewReport("cluster", "multi-host HotC: routing policies and failure handling (§VII)")

	policies := []kernel.Policy{kernel.PolicyRoundRobin, kernel.PolicyWarmAware}

	// (a) serial traffic.
	ta := r.NewTable("Serial traffic (1 request/30s, 40 requests, 4 nodes)",
		"routing", "reuse rate", "mean latency (ms)", "load imbalance")
	for _, p := range policies {
		c := newStudyCluster(p)
		results, err := c.Run(trace.Serial{Interval: 30 * time.Second, Count: 40}.Generate(),
			func(int) string { return "qr" })
		if err != nil {
			panic(err)
		}
		ta.AddRow(string(p), pct(cluster.ReuseRate(results)),
			msF(clusterMeanMS(results)), f2(c.LoadImbalance()))
		c.Close()
	}
	r.Notef("warm placement keeps revisits on the node that holds the warm runtime; rr scatters them")

	// (b) skew: one hot function (80% of traffic) and three cold ones.
	tb := r.NewTable("Skewed concurrent traffic (hot function ~83% of requests, 4 nodes)",
		"routing", "reuse rate", "mean latency (ms)", "load imbalance")
	for _, p := range policies {
		c := newStudyCluster(p)
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("coldfn-%d", i)
			rt := config.Runtime{Image: "node:10", Env: []string{fmt.Sprintf("F=%d", i)}}
			if err := c.Deploy(name, rt, workload.QRApp(workload.Node)); err != nil {
				panic(err)
			}
		}
		// Concurrent rounds of a popular function, plus *rare* niche
		// functions (one request every third round): the niche
		// revisits are where placement matters — scatter them and
		// every revisit is a cold start on a fresh node; keep them
		// affine and only the first is cold.
		var schedule []trace.Request
		for round := 0; round < 24; round++ {
			at := time.Duration(round) * 30 * time.Second
			for i := 0; i < 10; i++ {
				schedule = append(schedule, trace.Request{At: at, Class: 0, Round: round})
			}
			if round%3 == 0 {
				schedule = append(schedule, trace.Request{At: at, Class: 1 + (round/3)%3, Round: round})
			}
		}
		results, err := c.Run(schedule, func(cl int) string {
			if cl == 0 {
				return "qr"
			}
			return fmt.Sprintf("coldfn-%d", cl-1)
		})
		if err != nil {
			panic(err)
		}
		tb.AddRow(string(p), pct(cluster.ReuseRate(results)),
			msF(clusterMeanMS(results)), f2(c.LoadImbalance()))
		c.Close()
	}

	// (c) failure: kill a node mid-run under warm placement.
	c := newStudyCluster(kernel.PolicyWarmAware)
	sched := trace.Serial{Interval: 10 * time.Second, Count: 30}.Generate()
	half := len(sched) / 2
	c.Scheduler().At(sched[half].At, func() { c.FailNode(0) })
	results, err := c.Run(sched, func(int) string { return "qr" })
	if err != nil {
		panic(err)
	}
	failedServed := 0
	errs := 0
	for i, res := range results {
		if res.Err != nil {
			errs++
		}
		if i >= half && res.Node == "node-0" {
			failedServed++
		}
	}
	tc := r.NewTable("Node failure mid-run (warm placement)", "metric", "value")
	tc.AddRow("requests", fmt.Sprintf("%d", len(results)))
	tc.AddRow("errors", fmt.Sprintf("%d", errs))
	tc.AddRow("post-failure requests on failed node", fmt.Sprintf("%d", failedServed))
	tc.AddRow("reuse rate", pct(cluster.ReuseRate(results)))
	c.Close()
	r.Notef("after the failure the router re-homes traffic; one cold start re-warms a surviving node and reuse resumes")
	return r
}

func newStudyCluster(p kernel.Policy) *cluster.Cluster {
	c := cluster.New(cluster.Options{
		Nodes:   4,
		Routing: p,
		Seed:    77,
		PrePull: true,
		Core:    core.Options{Interval: 30 * time.Second},
	})
	if err := c.Deploy("qr", config.Runtime{Image: "python:3.8"}, workload.QRApp(workload.Python)); err != nil {
		panic(err)
	}
	return c
}

func clusterMeanMS(results []cluster.Result) float64 {
	var s metrics.Series
	for _, r := range results {
		if r.Err == nil {
			s.AddDuration(r.Timestamps.Total())
		}
	}
	return s.Mean()
}
