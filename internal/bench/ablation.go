package bench

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/metrics"
	"hotc/internal/pool"
	"hotc/internal/predictor"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// Ablations runs the design-choice studies DESIGN.md calls out beyond
// the paper's own figures: predictor composition, keep-alive window
// length versus HotC, pool capacity, and relaxed-key matching.
func Ablations() *Report {
	r := NewReport("ablations", "design-choice ablation studies")
	ablatePredictors(r)
	ablateKeepAlive(r)
	ablatePoolCap(r)
	ablateRelaxed(r)
	ablateContention(r)
	ablateEviction(r)
	return r
}

// ablateEviction compares the paper's oldest-first forced eviction
// against LRU under a tight pool cap with one hot function and a churn
// of rarely-revisited ones: oldest-first repeatedly kills the hot
// (oldest) runtime, LRU spares it.
func ablateEviction(r *Report) {
	t := r.NewTable("Ablation: forced-eviction victim order (pool cap 4, 1 hot + 6 churn functions)",
		"eviction", "hot-function cold starts", "hot-function mean (ms)", "evictions")
	for _, ev := range []pool.EvictionPolicy{pool.EvictOldest, pool.EvictLRU} {
		env := NewEnv(PolicyHotC, EnvOptions{
			Seed:    24,
			PrePull: true,
			Core: core.Options{
				Interval: time.Hour, // effectively static: isolate the eviction policy
				Pool:     pool.Options{MaxLive: 4, Eviction: ev},
			},
		})
		hot := workload.QRApp(workload.Python)
		if err := env.Deploy("hot", config.Runtime{Image: "python:3.8", Env: []string{"ROLE=hot"}}, hot); err != nil {
			panic(err)
		}
		churnNames := make([]string, 6)
		for i := range churnNames {
			churnNames[i] = fmt.Sprintf("churn-%d", i)
			rt := config.Runtime{Image: "node:10", Env: []string{fmt.Sprintf("ROLE=churn%d", i)}}
			if err := env.Deploy(churnNames[i], rt, workload.QRApp(workload.Node)); err != nil {
				panic(err)
			}
		}
		// Hot requests every 20s; churn functions rotate on a 10s
		// offset so forced evictions happen while the hot runtime sits
		// idle (and is therefore a candidate victim).
		var schedule []trace.Request
		for i := 0; i < 40; i++ {
			at := time.Duration(i) * 20 * time.Second
			schedule = append(schedule, trace.Request{At: at, Class: 0, Round: i})
			schedule = append(schedule, trace.Request{At: at + 10*time.Second, Class: 1 + i%6, Round: i})
		}
		results, err := env.Replay(schedule, func(c int) string {
			if c == 0 {
				return "hot"
			}
			return churnNames[c-1]
		})
		if err != nil {
			panic(err)
		}
		hotCold := 0
		for _, res := range results {
			if res.Err == nil && res.Function == "hot" && !res.Reused {
				hotCold++
			}
		}
		hotMean := meanTotalMS(results, func(res faas.Result) bool { return res.Function == "hot" })
		t.AddRow(ev.String(), fmt.Sprintf("%d", hotCold), msF(hotMean),
			fmt.Sprintf("%d", env.PoolStats().Evictions))
		env.Close()
	}
	r.Notef("oldest-first keeps re-evicting the hot function's long-lived runtime; LRU spares what is actually being reused")
}

// ablateContention turns on the resource-contention model and measures
// the burst-round latency spike the paper attributes to "network
// congestion and resource competition" (§V.D). The contention knee is
// set so steady rounds run uncontended while the 10x burst saturates
// the host.
func ablateContention(r *Report) {
	t := r.NewTable("Ablation: resource contention under a 10x burst (HotC)",
		"contention model", "steady-round mean (ms)", "burst-round mean (ms)", "burst p-max (ms)")
	pattern := trace.Burst{Base: 4, Factor: 10, BurstRounds: []int{6}, Rounds: 10, Interval: 30 * time.Second}
	for _, enabled := range []bool{false, true} {
		consts := coreConstants()
		if enabled {
			// The QR app uses ~5% CPU per request; 40 concurrent
			// bursts demand ~200%, past a 120% knee.
			consts.ContentionKneePct = 120
		}
		env := NewEnv(PolicyHotC, EnvOptions{
			Seed:      23,
			PrePull:   true,
			Constants: &consts,
			Core:      core.Options{Interval: 30 * time.Second},
		})
		if err := env.Deploy("qr", config.Runtime{Image: "python:3.8", Network: "nat"},
			workload.QRApp(workload.Python)); err != nil {
			panic(err)
		}
		results, err := env.Replay(pattern.Generate(), singleClass("qr"))
		if err != nil {
			panic(err)
		}
		var steady, burst metrics.Series
		for _, res := range results {
			if res.Err != nil {
				continue
			}
			if res.Request.Round == 6 {
				burst.AddDuration(res.Timestamps.Total())
			} else if res.Request.Round > 1 {
				steady.AddDuration(res.Timestamps.Total())
			}
		}
		label := "off"
		if enabled {
			label = "on (knee 120%)"
		}
		t.AddRow(label, msF(steady.Mean()), msF(burst.Mean()), msF(burst.Max()))
		env.Close()
	}
	r.Notef("with contention on, the burst round spikes while steady rounds are unaffected — the paper's §V.D observation")
}

func coreConstants() costmodel.Constants { return costmodel.Defaults() }

// ablatePredictors scores each predictor on the Fig. 10 demand series
// and on a campus-trace demand series.
func ablatePredictors(r *Report) {
	mk := map[string]func() predictor.Predictor{
		"naive(last value)": func() predictor.Predictor { return predictor.NewNaive() },
		"seasonal(20)":      func() predictor.Predictor { return predictor.NewSeasonal(20) },
		"ES(α=0.8)":         func() predictor.Predictor { return predictor.NewES(0.8) },
		"markov(n=8)":       func() predictor.Predictor { return predictor.NewMarkov(8) },
		"ES+markov (HotC)":  func() predictor.Predictor { return predictor.Default() },
	}
	order := []string{"naive(last value)", "seasonal(20)", "ES(α=0.8)", "markov(n=8)", "ES+markov (HotC)"}

	fig10 := fig10Series()
	campus := trace.CountPerRound(trace.Campus{Seed: 5, Scale: 10, Minutes: 600}.Generate())

	t := r.NewTable("Ablation: predictor composition (MAE, one-step-ahead)",
		"predictor", "fig10 series", "campus demand")
	for _, name := range order {
		p1 := predictor.Backtest(mk[name](), fig10)
		p2 := predictor.Backtest(mk[name](), campus)
		t.AddRow(name,
			f2(metrics.MeanAbsError(p1[5:], fig10[5:])),
			f2(metrics.MeanAbsError(p2[5:], campus[5:])))
	}
	r.Notef("the combination tracks trends (ES) while absorbing volatility (Markov), as §IV.C argues")
}

// liveSampler samples the engine's live-container count every interval
// during a replay; it reports the time-averaged pool size (the
// resource cost of a policy).
type liveSampler struct {
	series metrics.TimeSeries
	stop   func()
}

func startLiveSampler(env *Env, interval time.Duration) *liveSampler {
	s := &liveSampler{}
	s.series.Add(env.Sched.Now(), float64(env.Engine.Live()))
	s.stop = env.Sched.Every(interval, func() {
		s.series.Add(env.Sched.Now(), float64(env.Engine.Live()))
	})
	return s
}

// replayWithPolicy runs the standard QR workload under a policy and
// reports mean latency, cold-start fraction and average live
// containers.
func replayWithPolicy(kind PolicyKind, opts EnvOptions, schedule []trace.Request) (meanMS float64, coldFrac float64, avgLive float64) {
	env := NewEnv(kind, opts)
	defer env.Close()
	if err := env.Deploy("qr", config.Runtime{Image: "python:3.8", Network: "nat"},
		workload.QRApp(workload.Python)); err != nil {
		panic(err)
	}
	sampler := startLiveSampler(env, 10*time.Second)
	results, err := env.Replay(schedule, singleClass("qr"))
	if err != nil {
		panic(err)
	}
	sampler.stop()
	cold, n := 0, 0
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		n++
		if !res.Reused {
			cold++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return meanTotalMS(results, nil), float64(cold) / float64(n), sampler.series.MeanValue()
}

// ablateKeepAlive compares fixed keep-alive windows against HotC on a
// bursty Poisson workload: short windows cold-start, long windows
// waste pool capacity; HotC adapts.
func ablateKeepAlive(r *Report) {
	schedule := trace.Poisson{Seed: 7, RatePerSec: 0.05, Length: time.Hour}.Generate() // ~3/minute
	t := r.NewTable("Ablation: fixed keep-alive window vs HotC (Poisson ~3 req/min, 1h)",
		"policy", "mean latency (ms)", "cold-start fraction", "avg live containers")
	for _, w := range []time.Duration{30 * time.Second, 2 * time.Minute, 15 * time.Minute, time.Hour} {
		mean, cold, live := replayWithPolicy(PolicyKeepAlive,
			EnvOptions{Seed: 20, KeepAliveWindow: w, PrePull: true}, schedule)
		t.AddRow("keepalive("+w.String()+")", msF(mean), pct(cold), f2(live))
	}
	mean, cold, live := replayWithPolicy(PolicyHotC, EnvOptions{Seed: 20, PrePull: true}, schedule)
	t.AddRow("hotc", msF(mean), pct(cold), f2(live))
	r.Notef("fixed windows trade cold starts against idle resources; HotC's prediction holds both down")
}

// ablatePoolCap sweeps the live-container cap under parallel traffic.
func ablatePoolCap(r *Report) {
	schedule := trace.Parallel{Threads: 8, Interval: 30 * time.Second, Rounds: 10}.Generate()
	t := r.NewTable("Ablation: pool capacity under 8-way parallel traffic",
		"max live", "mean latency (ms)", "cold-start fraction", "evictions")
	for _, maxLive := range []int{2, 4, 8, 16} {
		env := NewEnv(PolicyHotC, EnvOptions{
			Seed:    21,
			PrePull: true,
			Core:    core.Options{Pool: pool.Options{MaxLive: maxLive}},
		})
		if err := env.Deploy("qr", config.Runtime{Image: "python:3.8", Network: "nat"},
			workload.QRApp(workload.Python)); err != nil {
			panic(err)
		}
		results, err := env.Replay(schedule, singleClass("qr"))
		if err != nil {
			panic(err)
		}
		cold, n := 0, 0
		for _, res := range results {
			if res.Err == nil {
				n++
				if !res.Reused {
					cold++
				}
			}
		}
		t.AddRow(fmt.Sprintf("%d", maxLive), msF(meanTotalMS(results, nil)),
			pct(float64(cold)/float64(n)),
			fmt.Sprintf("%d", env.PoolStats().Evictions))
		env.Close()
	}
	r.Notef("a cap below the concurrency level forces evict-and-recreate churn; at or above it, reuse is clean")
}

// ablateRelaxed compares exact-key matching against relaxed-key reuse
// on a workload where every request carries a unique environment
// variable (same image and namespaces).
func ablateRelaxed(r *Report) {
	t := r.NewTable("Ablation: relaxed-key reuse (§VII future work) under unique-env requests",
		"matching", "mean latency (ms)", "pool hit rate")
	for _, relaxed := range []bool{false, true} {
		env := NewEnv(PolicyHotC, EnvOptions{
			Seed:    22,
			PrePull: true,
			Core:    core.Options{Pool: pool.Options{EnableRelaxed: relaxed}},
		})
		// 20 functions, all python QR with a unique env var each: the
		// full keys differ, the relaxed keys match.
		names := make([]string, 20)
		for i := range names {
			names[i] = fmt.Sprintf("qr-%d", i)
			rt := config.Runtime{
				Image: "python:3.8", Network: "nat",
				Env: []string{fmt.Sprintf("REQ=%d", i)},
			}
			if err := env.Deploy(names[i], rt, workload.QRApp(workload.Python)); err != nil {
				panic(err)
			}
		}
		var schedule []trace.Request
		for i := 0; i < 20; i++ {
			schedule = append(schedule, trace.Request{At: time.Duration(i) * 15 * time.Second, Class: i, Round: i})
		}
		results, err := env.Replay(schedule, func(c int) string { return names[c%len(names)] })
		if err != nil {
			panic(err)
		}
		st := env.PoolStats()
		hitRate := 0.0
		if st.Hits+st.Misses > 0 {
			hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		label := "exact keys"
		if relaxed {
			label = "relaxed keys"
		}
		t.AddRow(label, msF(meanTotalMS(results, nil)), pct(hitRate))
		env.Close()
	}
	r.Notef("relaxed matching turns unique-env misses into hits by applying the delta at exec time")
}

// PolicyShootout compares every policy on the scaled campus trace —
// the summary experiment tying the baselines together.
func PolicyShootout() *Report {
	r := NewReport("shootout", "all policies on the campus diurnal trace")
	// Three hours around the burst (T600..T780), scaled 20x down.
	campus := trace.Campus{Seed: 33, Scale: 20, Minutes: 180}
	full := campus.Generate()
	// Shift to start at T600 by regenerating with offset semantics:
	// take the slice as-is (the envelope's first 180 minutes), which
	// exercises quiet + burst-free traffic; then add the burst window.
	schedule := full

	t := r.NewTable("Policy shootout (campus trace, 3h, scaled)",
		"policy", "mean latency (ms)", "p99 (ms)", "cold-start fraction", "avg live containers")
	kinds := []struct {
		kind PolicyKind
		opts EnvOptions
	}{
		{PolicyCold, EnvOptions{Seed: 34, PrePull: true}},
		{PolicyKeepAlive, EnvOptions{Seed: 34, KeepAliveWindow: 15 * time.Minute, PrePull: true}},
		{PolicyWarmup, EnvOptions{Seed: 34, KeepAliveWindow: 15 * time.Minute, PrePull: true}},
		{PolicyHistogram, EnvOptions{Seed: 34, PrePull: true}},
		{PolicyHotC, EnvOptions{Seed: 34, PrePull: true, Core: core.Options{Interval: time.Minute}}},
	}
	for _, k := range kinds {
		env := NewEnv(k.kind, k.opts)
		if err := env.Deploy("qr", config.Runtime{Image: "python:3.8", Network: "nat"},
			workload.QRApp(workload.Python)); err != nil {
			panic(err)
		}
		sampler := startLiveSampler(env, 30*time.Second)
		results, err := env.Replay(schedule, singleClass("qr"))
		if err != nil {
			panic(err)
		}
		sampler.stop()
		var lat metrics.Series
		cold, n := 0, 0
		for _, res := range results {
			if res.Err != nil {
				continue
			}
			n++
			lat.AddDuration(res.Timestamps.Total())
			if !res.Reused {
				cold++
			}
		}
		t.AddRow(env.Provider.Name(), msF(lat.Mean()), msF(lat.Percentile(99)),
			pct(float64(cold)/float64(max(n, 1))), f2(sampler.series.MeanValue()))
		env.Close()
	}
	r.Notef("HotC matches the latency of always-warm policies at a fraction of the retained pool; the cold baseline pays full setup on every request")
	return r
}
