// Command hotc-sim runs a single serverless scenario — a request
// pattern against a function under a runtime-management policy on a
// hardware profile — and prints per-round latencies and a summary.
//
// Examples:
//
//	hotc-sim -policy hotc -pattern serial -count 20
//	hotc-sim -policy cold -pattern burst -rounds 18
//	hotc-sim -policy keepalive -keepalive 2m -pattern campus -minutes 120
//	hotc-sim -profile edge-pi -app v3 -pattern serial -count 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"hotc"
	"hotc/internal/obs"
	"hotc/internal/scenario"
)

var (
	policyFlag  = flag.String("policy", "hotc", "policy: hotc|cold|keepalive|warmup|histogram")
	profileFlag = flag.String("profile", "server", "profile: server|edge-pi")
	patternFlag = flag.String("pattern", "serial", "pattern: serial|parallel|linear-inc|linear-dec|exp|exp-dec|burst|campus")
	appFlag     = flag.String("app", "qr", "application: qr|random|v3|tfapi|cassandra")
	langFlag    = flag.String("lang", "python", "language for qr/random apps: go|python|node|java")
	network     = flag.String("network", "bridge", "container network mode")
	count       = flag.Int("count", 20, "requests (serial)")
	rounds      = flag.Int("rounds", 10, "rounds (parallel/linear/exp/burst)")
	threads     = flag.Int("threads", 10, "client threads (parallel)")
	minutes     = flag.Int("minutes", 60, "trace minutes (campus)")
	interval    = flag.Duration("interval", 30*time.Second, "round interval")
	keepalive   = flag.Duration("keepalive", 15*time.Minute, "keep-alive window")
	seed        = flag.Int64("seed", 42, "jitter seed (0 = noiseless)")
	traceFile   = flag.String("trace", "", "replay this CSV schedule instead of a generated pattern")
	specFile    = flag.String("spec", "", "run a declarative JSON scenario spec instead of the scenario flags")
	verbose     = flag.Bool("v", false, "print every request")
	spanLog     = flag.String("span-log", "", "write per-request spans to this JSONL file")
	metricsDump = flag.String("metrics-dump", "", "write the metrics registry to this JSONL file")
	report      = flag.Bool("report", false, "print the per-phase latency breakdown from recorded spans")
)

// Flags and specs are one path: the scenario flags lower to a
// scenario.Spec, and either way the spec's Run is what executes.
func main() {
	flag.Parse()
	lower := specFromFlags
	if *specFile != "" {
		lower = loadSpec
	}
	spec, err := lower()
	if err != nil {
		fatal(err)
	}
	run := spec.Run
	if *spanLog != "" || *report {
		run = spec.RunTraced
	}
	out, err := run()
	if err != nil {
		fatal(err)
	}
	if *specFile != "" {
		printScenario(out)
	} else {
		printPattern(out)
	}
	if *report {
		fmt.Printf("\nlatency breakdown (spans):\n%s", obs.Summarize(out.Spans).Render())
	}
	if *spanLog != "" {
		writeFile(*spanLog, func(f *os.File) error { return obs.WriteSpans(f, out.Spans) })
		fmt.Printf("spans: %d written to %s\n", len(out.Spans), *spanLog)
	}
	if *metricsDump != "" {
		writeFile(*metricsDump, func(f *os.File) error { return out.Metrics.WriteJSONL(f) })
		fmt.Printf("metrics dumped to %s\n", *metricsDump)
	}
}

// specFromFlags lowers the scenario flags to the spec they describe.
func specFromFlags() (*scenario.Spec, error) {
	app := *appFlag
	if app == "qr" || app == "random" {
		app += "-" + *langFlag
	}
	w := scenario.WorkloadSpec{
		IntervalSec: interval.Seconds(),
		Count:       *count,
		Rounds:      *rounds,
		Threads:     *threads,
		Minutes:     *minutes,
	}
	switch p := *patternFlag; {
	case *traceFile != "":
		w = scenario.WorkloadSpec{Kind: "csv", File: *traceFile}
		*patternFlag = "trace:" + *traceFile
	case p == "serial" || p == "parallel" || p == "exp" || p == "burst" || p == "campus":
		w.Kind = p
	case p == "exp-dec":
		w.Kind, w.Decreasing = "exp", true
	case p == "linear-inc":
		w.Kind, w.Start, w.Step = "linear", 2, 2
	case p == "linear-dec":
		w.Kind, w.Start, w.Step = "linear", 2**rounds, -2
	default:
		return nil, fmt.Errorf("unknown pattern %q", p)
	}
	// For parallel patterns every thread gets its own configuration
	// (per the paper's Fig. 12b); otherwise one function serves all.
	nClasses := 1
	if w.Kind == "parallel" {
		nClasses = *threads
	}
	fns := make([]scenario.FunctionSpec, nClasses)
	for i := range fns {
		fns[i] = scenario.FunctionSpec{Name: fmt.Sprintf("fn-%d", i), App: app, Network: *network}
		if nClasses > 1 {
			fns[i].Env = []string{fmt.Sprintf("THREAD=%d", i)}
		}
	}
	return &scenario.Spec{
		Profile:      *profileFlag,
		Policy:       *policyFlag,
		Seed:         *seed,
		KeepAliveSec: keepalive.Seconds(),
		Functions:    fns,
		Workload:     w,
	}, nil
}

// loadSpec parses a spec file. Beside -spec only the flags that shape
// the output are accepted: a scenario flag would be silently outvoted by
// the file, and a cluster run has neither spans nor a metrics registry
// to write.
func loadSpec() (*scenario.Spec, error) {
	data, err := os.ReadFile(*specFile)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spec":
		case "span-log", "metrics-dump", "report":
			if spec.Cluster != nil && err == nil {
				err = fmt.Errorf("-%s needs a single-host spec: a \"cluster\" run records no spans and has no metrics registry", f.Name)
			}
		default:
			if err == nil {
				err = fmt.Errorf("-%s cannot be combined with -spec: the spec file describes the whole scenario", f.Name)
			}
		}
	})
	return spec, err
}

// printPattern is the flag invocation's output: the per-round (or, with
// -v, per-request) table and a summary.
func printPattern(out *scenario.Outcome) {
	if *verbose {
		for i, r := range out.Results {
			status := "warm"
			if !r.Reused {
				status = "COLD"
			}
			if r.Err != nil {
				status = "ERR " + r.Err.Error()
			}
			fmt.Printf("%4d  round=%-3d %-10s latency=%8.2fms init=%7.2fms (%s)\n",
				i, r.Round, r.Function,
				float64(r.Latency)/float64(time.Millisecond),
				float64(r.Initiation)/float64(time.Millisecond), status)
		}
	} else {
		printRounds(out.Results)
	}
	st := out.Stats
	fmt.Printf("\npolicy=%s profile=%s pattern=%s\n", out.Policy, *profileFlag, *patternFlag)
	fmt.Printf("requests=%d cold=%d reused=%d mean=%.2fms p99=%.2fms max=%.2fms\n",
		st.Requests, st.ColdStarts, st.Reused, st.MeanMS, st.P99MS, st.MaxMS)
	fmt.Printf("live containers at end: %d; host cpu=%.1f%% mem=%.0fMB\n",
		out.LiveContainers, out.HostCPUPct, out.HostMemMB)
}

// writeFile creates path and runs the writer against it, dying on any
// error.
func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// printScenario is the -spec invocation's output.
func printScenario(out *scenario.Outcome) {
	fmt.Printf("scenario %q (policy %s)\n", out.Name, out.Policy)
	fmt.Printf("requests=%d errors=%d cold=%d reused=%d mean=%.2fms p99=%.2fms max=%.2fms live=%d\n",
		out.Stats.Requests, out.Stats.Errors, out.Stats.ColdStarts, out.Stats.Reused,
		out.Stats.MeanMS, out.Stats.P99MS, out.Stats.MaxMS, out.LiveContainers)
	if len(out.ServedByNode) > 0 {
		fmt.Printf("served per node: %v\n", out.ServedByNode)
	}
	if out.Faults.Total() > 0 {
		fmt.Printf("injected faults: create-fails=%d exec-crashes=%d corruptions=%d slow-starts=%d\n",
			out.Faults.CreateFails, out.Faults.ExecCrashes, out.Faults.Corruptions, out.Faults.SlowStarts)
	}
	if len(out.Resilience) > 0 {
		keys := make([]string, 0, len(out.Resilience))
		for k := range out.Resilience {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("resilience:")
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, out.Resilience[k])
		}
		fmt.Println()
	}
	names := make([]string, 0, len(out.PerFunction))
	for name := range out.PerFunction {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fo := out.PerFunction[name]
		fmt.Printf("  %-20s requests=%-5d cold=%-4d mean=%.2fms\n",
			name, fo.Requests, fo.ColdStarts, fo.MeanMS)
	}
}

func printRounds(results []hotc.RequestResult) {
	byRound := map[int][]hotc.RequestResult{}
	maxRound := 0
	for _, r := range results {
		byRound[r.Round] = append(byRound[r.Round], r)
		if r.Round > maxRound {
			maxRound = r.Round
		}
	}
	fmt.Printf("%-6s %-9s %-12s %-6s\n", "round", "requests", "mean (ms)", "cold")
	for round := 0; round <= maxRound; round++ {
		rs := byRound[round]
		if len(rs) == 0 {
			continue
		}
		sum, cold := 0.0, 0
		for _, r := range rs {
			sum += float64(r.Latency) / float64(time.Millisecond)
			if !r.Reused {
				cold++
			}
		}
		fmt.Printf("%-6d %-9d %-12.2f %-6d\n", round+1, len(rs), sum/float64(len(rs)), cold)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotc-sim:", err)
	os.Exit(1)
}
