package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// runOpts is how one workload run is sized.
type runOpts struct {
	seed    int64
	seconds float64 // timed window
	warmup  float64 // untimed warm-up before it
	setups  int     // set-up repetitions; the median is reported
	traced  bool
	// simMinutes is the length of the campus trace (a day, or two
	// hours under -smoke).
	simMinutes int
	rec        *recorder
}

// workload is one named traffic mix. why is the sentence BENCHMARK.json
// and the README carry.
type workload struct {
	name    string
	why     string
	seconds float64 // window length of a full native pass
	run     func(o runOpts) (*window, error)
}

// window is everything measured around one timed window, before it is
// reduced to metrics.
type window struct {
	setupS  []float64
	seconds float64
	routed  bool
	churn   bool
	checks  []string

	// Live workloads.
	samples       []sample // completion order
	before, after counters
	procBefore    procSnap
	procAfter     procSnap
	goroutines    int
	phases        map[string][]float64
	scrapeMS      float64

	// sim_campus.
	replayNs []float64
	outputs  simOutputs
	genMS    []float64
}

func (w *window) check(ok bool, format string, args ...any) {
	if !ok {
		w.checks = append(w.checks, fmt.Sprintf(format, args...))
	}
}

// churnRate is cold_churn's arrival rate. At 50 req/s two overlapping
// boots stall both connections and the mean wanders 12-15 ms; 40 keeps
// the generator ahead of the boots, and its lag is reported.
const churnRate = 40

var workloads = []*workload{
	{
		name:    "warm_small",
		why:     "closed loop, 2 clients, 64 B echo straight to one daemon: every request is a warm hit, so live's per-request overhead does all the work",
		seconds: 15,
		run:     liveRun{payload: 64}.run,
	},
	{
		name:    "warm_routed",
		why:     "the warm_small load through router.New over two daemons: the only difference is the router hop, so router shows here and nowhere else",
		seconds: 15,
		run:     liveRun{payload: 64, cfg: stackConfig{routed: true}}.run,
	},
	{
		name:    "warm_large",
		why:     "closed loop, 2 clients, 1 MiB echo verified by CRC: the streaming copy path dominates and per-request overhead is diluted",
		seconds: 15,
		run:     liveRun{payload: 1 << 20}.run,
	},
	{
		name:    "cold_churn",
		why:     "paced 40 req/s over 4 sleep functions 8:1:1:1 with a 150 ms keep-alive: every light arrival is a warm miss, so the acquisition ladder, controller and janitor do the work",
		seconds: 28,
		run:     liveRun{cfg: stackConfig{churn: true}}.run,
	},
	{
		name:    "sim_campus",
		why:     "no sockets: a day of the campus trace replayed through the HotC simulation, stressing core/pool/predictor/simclock on the CPU and nothing in live",
		seconds: 15,
		run:     simRun,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// liveRun is a workload against the hosted live stack.
type liveRun struct {
	cfg stackConfig
	// payload is the echo body size; 0 means cold_churn's sleep mix.
	payload int
}

// build makes the deployments and the load from the seed. The seed
// drives the payload bytes and where the light functions sit in
// cold_churn's cycle.
func (l liveRun) build(seed int64, base string) ([]function, *load) {
	rng := rand.New(rand.NewSource(seed))
	if !l.cfg.churn {
		t := &target{url: base + "/function/echo", echo: true}
		n := 8
		if l.payload >= 1<<20 {
			n = 4
		}
		for i := 0; i < n; i++ {
			t.payloads = append(t.payloads, newPayload(rng, l.payload))
		}
		return []function{{name: "echo", handler: "echo"}}, &load{targets: []*target{t}, cycle: []int{0}}
	}
	var fns []function
	ld := &load{rate: churnRate}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		fns = append(fns, function{name: name, handler: "sleep", image: "python:3.8", coldStartMs: 60})
		// The sleep builtin takes its service time from the body: 1 ms.
		ld.targets = append(ld.targets, &target{url: base + "/function/" + name, payloads: []payload{{data: []byte("1")}}})
	}
	// 8:1:1:1 over an 11-slot cycle. The three light functions take
	// slots spread through the cycle (gaps 4, 3, 4); the seed rotates
	// the pattern and permutes which light function gets which slot.
	ld.cycle = make([]int, 11)
	rot := rng.Intn(11)
	perm := rng.Perm(3)
	for i, slot := range []int{0, 4, 7} {
		ld.cycle[(slot+rot)%11] = 1 + perm[i]
	}
	return fns, ld
}

// run sets the stack up (several times, for a steady setup_s), warms
// it, and measures one window.
func (l liveRun) run(o runOpts) (*window, error) {
	win := &window{routed: l.cfg.routed, churn: l.cfg.churn}
	cfg := l.cfg
	cfg.traced = o.traced

	var st *stack
	var workers []*worker
	var ld *load
	teardown := func() {
		for _, w := range workers {
			w.close()
		}
		if st != nil {
			st.stop()
		}
	}
	for i := 0; i < o.setups; i++ {
		teardown()
		t0 := time.Now()
		var err error
		if st, err = startStack(cfg); err != nil {
			return nil, err
		}
		var fns []function
		fns, ld = l.build(o.seed, st.base)
		for _, fn := range fns {
			if err := o.rec.call("deploy", func() error { return st.deploy(fn) }); err != nil {
				teardown()
				return nil, fmt.Errorf("deploy %s: %w", fn.name, err)
			}
		}
		workers = workers[:0]
		for id := 0; id < clients; id++ {
			w := newWorker(id)
			w.wantNode = cfg.routed
			workers = append(workers, w)
		}
		if err := o.rec.call("prime", func() error { return prime(workers, ld) }); err != nil {
			teardown()
			return nil, err
		}
		win.setupS = append(win.setupS, time.Since(t0).Seconds())
	}
	defer teardown()

	// Warm-up: the same load, untimed. Caches fill, the controller sees
	// demand, the connections settle.
	_, ld.offset = ld.run(workers, seconds(o.warmup))

	for _, w := range workers {
		w.traced, w.rec = o.traced, o.rec
	}
	var err error
	if win.before, err = st.counters(); err != nil {
		return nil, err
	}
	runtime.GC() // start every window from a collected heap
	win.procBefore = readProc()
	t0 := time.Now()
	win.samples, _ = ld.run(workers, seconds(o.seconds))
	win.seconds = time.Since(t0).Seconds()
	win.procAfter = readProc()
	win.goroutines = runtime.NumGoroutine()
	if win.after, err = st.counters(); err != nil {
		return nil, err
	}
	if o.traced {
		if win.phases, err = st.phases(); err != nil {
			return nil, err
		}
	}
	d, err := st.scrape()
	if err != nil {
		return nil, err
	}
	win.scrapeMS = float64(d) / 1e6
	win.verifyAccounting()
	return win, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// prime sends one verified request per function from every client at
// once, so each connection is open and each client has a warm instance
// to land on.
func prime(workers []*worker, ld *load) error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	epoch := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for _, t := range ld.targets {
				if s := w.do(t, epoch, -1); !s.ok {
					errs[i] = fmt.Errorf("priming %s failed", t.url)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyAccounting holds the client's own counts against the window's
// Daemon.Stats() delta: requests = reused + cold_starts, and each side
// of it matches what the response headers said.
func (w *window) verifyAccounting() {
	var byMode [numModes]int
	total, failed := 0, 0
	for _, s := range w.samples {
		if !s.ok {
			failed++
			continue
		}
		total++
		byMode[s.mode]++
	}
	d := func(a, b int) int { return a - b }
	req := d(w.after.requests, w.before.requests)
	reused := d(w.after.reused, w.before.reused)
	cold := d(w.after.coldStarts, w.before.coldStarts)
	w.check(req == reused+cold, "daemon stats: requests %d != reused %d + cold_starts %d", req, reused, cold)
	if failed > 0 {
		return // the per-request failures already say what went wrong
	}
	w.check(req == total, "daemon counted %d requests, client verified %d", req, total)
	w.check(reused == byMode[modeWarm], "daemon counted %d reused, headers said %d", reused, byMode[modeWarm])
	w.check(d(w.after.rented, w.before.rented) == byMode[modeRented], "daemon counted %d rented, headers said %d",
		d(w.after.rented, w.before.rented), byMode[modeRented])
	w.check(d(w.after.generic, w.before.generic) == byMode[modeGeneric], "daemon counted %d generic, headers said %d",
		d(w.after.generic, w.before.generic), byMode[modeGeneric])
}

// simRun replays the campus trace through fresh simulations until the
// window is used up, and reports the median replay.
func simRun(o runOpts) (*window, error) {
	win := &window{}
	var tr simTrace
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		o.rec.call("trace.generate", func() error { tr = campusTrace(o.seed, o.simMinutes); return nil })
		win.genMS = append(win.genMS, float64(time.Since(t0))/1e6)
		s, err := newSim()
		if err != nil {
			return nil, err
		}
		s.close()
		win.setupS = append(win.setupS, time.Since(t0).Seconds())
	}

	replay := func(timed bool) error {
		s, err := newSim()
		if err != nil {
			return err
		}
		defer s.close()
		var out simOutputs
		t0 := time.Now()
		err = o.rec.call("sim.replay", func() error { out, err = s.replay(tr); return err })
		wall := time.Since(t0)
		if err != nil || !timed {
			return err
		}
		if len(win.replayNs) > 0 {
			win.check(out == win.outputs, "replay %d of one trace gave different outputs: %+v vs %+v", len(win.replayNs)+1, out, win.outputs)
		}
		win.outputs = out
		win.replayNs = append(win.replayNs, float64(wall))
		win.seconds += wall.Seconds()
		d, err := s.scrape()
		win.scrapeMS = float64(d) / 1e6
		return err
	}
	if o.warmup > 0 {
		if err := replay(false); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	win.procBefore = readProc()
	// At least two replays, so "the same trace gives the same outputs"
	// is checked on every run.
	for win.seconds < o.seconds || len(win.replayNs) < 2 {
		if err := replay(true); err != nil {
			return nil, err
		}
	}
	win.procAfter = readProc()
	win.goroutines = runtime.NumGoroutine()
	win.check(win.outputs.Errors == 0, "%d simulated requests failed", win.outputs.Errors)
	win.check(win.outputs.Requests+win.outputs.Errors == tr.len(), "replayed %d of %d requests", win.outputs.Requests+win.outputs.Errors, tr.len())
	win.check(win.outputs.Requests == win.outputs.Reused+win.outputs.ColdStarts, "sim stats: requests %d != reused %d + cold_starts %d",
		win.outputs.Requests, win.outputs.Reused, win.outputs.ColdStarts)
	return win, nil
}
