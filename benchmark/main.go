// Command benchmark is HotC's one benchmark harness: five named
// workloads, seven end-to-end metrics, and a per-layer budget from a
// traced pass. It hosts the live stack in-process on real loopback
// sockets, drives it from at most two client goroutines, verifies every
// output, and prints every metric by name.
//
//	go run -C benchmark . -seed 1 -out run.json            # untraced pass, all workloads
//	go run -C benchmark . -seed 1 -traced -trace-out s.jsonl -out run.json
//	go run -C benchmark . -smoke -only warm_small          # CI-sized
//	go run -C benchmark . -compare a.json b.json           # regression check
//
// The benchmark driver's contract (see BENCHMARK.json) is the same
// program run for one workload:
//
//	bash benchmark/run.sh --workload warm_small --seed 7 --seconds 15 --trace 0
//
// which prints the contract's result object as its last line.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "drives the campus trace, the payload bytes and the light functions' slots in cold_churn's cycle")
		outFile  = flag.String("out", "", "write the full JSON report here")
		only     = flag.String("only", "", "run one workload")
		wlFlag   = flag.String("workload", "", "run one workload and print the driver's result object as the last line")
		secs     = flag.Float64("seconds", 0, "length of every timed window (0 = each workload's own)")
		smoke    = flag.Bool("smoke", false, "every window at most 2 s, short warm-up, two-hour campus trace; the percentile floor still applies")
		traced   = flag.Bool("traced", false, "after the untraced pass, rerun at half length with tracing on and fill the per-layer metrics")
		trace    = flag.Int("trace", -1, "driver form: 0 runs the untraced pass only, 1 the traced pass only")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans here as JSONL")
		compare  = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		bounds   = flag.String("bounds", "", "BENCHMARK.json to take regression bounds from (default: ./BENCHMARK.json or ../BENCHMARK.json)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), *bounds)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	name := *wlFlag
	if name == "" {
		name = *only
	}
	selected := workloads
	if name != "" {
		wl := findWorkload(name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		selected = []*workload{wl}
	}

	r := runner{seed: *seed, seconds: *secs, smoke: *smoke, refs: make(refs)}
	rep := newReport(*seed, *smoke)
	runUntraced := *trace != 1
	runTraced := *traced || *trace == 1
	if runUntraced {
		for _, wl := range selected {
			res, err := r.untraced(wl)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", wl.name, err))
			}
			rep.Untraced = append(rep.Untraced, res)
			printWorkload(os.Stdout, "untraced", res)
		}
	}
	if runTraced {
		r.rec = newRecorder()
		for _, wl := range selected {
			res, err := r.traced(wl)
			if err != nil {
				fatal(fmt.Errorf("%s traced: %w", wl.name, err))
			}
			rep.Traced = append(rep.Traced, res)
			printWorkload(os.Stdout, "traced", res)
		}
		rep.Spans, rep.SpansLost = r.rec.summarize()
		if missing := unfilled(rep.Traced); len(selected) == len(workloads) && len(missing) > 0 {
			// Not a failure: a p50 of full cold starts needs a full cold
			// start to have happened.
			fmt.Printf("note: no workload had samples for %v\n", missing)
		}
		if *traceOut != "" {
			if err := r.rec.writeJSONL(*traceOut); err != nil {
				fatal(err)
			}
		}
	}
	if *outFile != "" {
		if err := writeReport(*outFile, rep); err != nil {
			fatal(err)
		}
	}
	if *wlFlag != "" {
		res := rep.Untraced
		if *trace == 1 {
			res = rep.Traced
		}
		line, err := driverLine(res[0], *trace == 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	if !rep.correct() {
		fmt.Fprintln(os.Stderr, "benchmark: output verification failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// unfilled lists per-layer metrics that have a value on no workload of
// a full traced pass.
func unfilled(results []*workloadResult) []string {
	filled := make(map[string]bool)
	for _, r := range results {
		for _, m := range r.PerLayer {
			if m.Value != nil {
				filled[m.Name] = true
			}
		}
	}
	var missing []string
	for _, d := range perLayerDefs {
		if !filled[d.name] {
			missing = append(missing, d.name)
		}
	}
	return missing
}

// runner sizes and sequences the passes.
type runner struct {
	seed    int64
	seconds float64
	smoke   bool
	rec     *recorder
	// refs are the untraced p50s the traced pass subtracts from: taken
	// from the untraced pass when it ran, measured with short windows
	// otherwise.
	refs   refs
	direct map[string]metric
}

// opts sizes one run: share is the fraction of the window this run
// gets (1 for the untraced pass, 1/2 traced, 1/4 for a reference
// window).
func (r *runner) opts(wl *workload, share float64) runOpts {
	o := runOpts{seed: r.seed, seconds: wl.seconds, warmup: 2, setups: 9, simMinutes: 1440}
	if r.seconds > 0 {
		o.seconds = r.seconds
	}
	if r.smoke {
		o.seconds = min(o.seconds, 2)
		o.warmup, o.setups, o.simMinutes = 0.3, 2, 120
	}
	o.seconds *= share
	return o
}

func (r *runner) untraced(wl *workload) (*workloadResult, error) {
	win, err := wl.run(r.opts(wl, 1))
	if err != nil {
		return nil, err
	}
	res := reduce(wl, win, nil, nil)
	r.noteRef(res)
	return res, nil
}

func (r *runner) noteRef(res *workloadResult) {
	for _, m := range res.EndToEnd {
		if m.Name == "latency_p50_ms" && m.Value != nil {
			r.refs[res.Name] = *m.Value
		}
	}
}

// traced runs wl at half length with tracing on, after making sure the
// direct layer timings and the untraced references it needs exist.
func (r *runner) traced(wl *workload) (*workloadResult, error) {
	if r.direct == nil {
		var err error
		if r.direct, err = measureDirect(r.seed, r.rec); err != nil {
			return nil, fmt.Errorf("direct layer timings: %w", err)
		}
	}
	var need []string
	switch wl.name {
	case "sim_campus":
	case "warm_routed":
		need = []string{"warm_routed", "warm_small"} // router.hop_us is their difference
	default:
		need = []string{wl.name}
	}
	for _, name := range need {
		if _, ok := r.refs[name]; ok {
			continue
		}
		ref := findWorkload(name)
		o := r.opts(ref, 0.25)
		o.warmup, o.setups = min(o.warmup, 1), 1
		win, err := ref.run(o)
		if err != nil {
			return nil, fmt.Errorf("reference window %s: %w", name, err)
		}
		res := reduce(ref, win, nil, nil)
		if !res.correct() {
			return nil, fmt.Errorf("reference window %s failed verification: %v", name, res.Checks)
		}
		r.noteRef(res)
	}
	o := r.opts(wl, 0.5)
	o.traced, o.rec = true, r.rec
	win, err := wl.run(o)
	if err != nil {
		return nil, err
	}
	res := reduce(wl, win, r.direct, r.refs)
	if wl.name == "cold_churn" {
		checkLayerIdentity(res)
	}
	return res, nil
}
