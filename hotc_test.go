package hotc

import (
	"strings"
	"testing"
	"time"
)

func mustQR(t *testing.T) App {
	t.Helper()
	app, err := AppQR("python")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func newSim(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	if cfg.LocalImages == false {
		cfg.LocalImages = true
	}
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestQuickstartFlow(t *testing.T) {
	sim := newSim(t, Config{Policy: PolicyHotC})
	if err := sim.Deploy(FunctionSpec{
		Name:    "qr",
		Runtime: Runtime{Image: "python:3.8"},
		App:     mustQR(t),
	}); err != nil {
		t.Fatal(err)
	}
	results, err := sim.Replay(SerialWorkload(30*time.Second, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(results)
	if st.Requests != 10 || st.ColdStarts != 1 || st.Reused != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanMS <= 0 || st.P99MS < st.MeanMS || st.MaxMS < st.P99MS {
		t.Fatalf("latency stats inconsistent: %+v", st)
	}
}

func TestAllPoliciesConstructible(t *testing.T) {
	for _, p := range []Policy{PolicyHotC, PolicyCold, PolicyKeepAlive, PolicyWarmup, PolicyHistogram} {
		sim := newSim(t, Config{Policy: p})
		if err := sim.Deploy(FunctionSpec{Name: "qr", Runtime: Runtime{Image: "python:3.8"}, App: mustQR(t)}); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		results, err := sim.Replay(SerialWorkload(time.Minute, 3), nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if Summarize(results).Requests != 3 {
			t.Fatalf("%s: lost requests", p)
		}
		if sim.PolicyName() == "" {
			t.Fatalf("%s: empty policy name", p)
		}
	}
}

func TestBothProfiles(t *testing.T) {
	server := newSim(t, Config{Profile: ProfileServer, Policy: PolicyCold})
	pi := newSim(t, Config{Profile: ProfileEdgePi, Policy: PolicyCold})
	for _, s := range []*Simulation{server, pi} {
		if err := s.Deploy(FunctionSpec{Name: "qr", Runtime: Runtime{Image: "python:3.8"}, App: mustQR(t)}); err != nil {
			t.Fatal(err)
		}
	}
	rs, _ := server.Replay(SerialWorkload(time.Minute, 2), nil)
	rp, _ := pi.Replay(SerialWorkload(time.Minute, 2), nil)
	if rp[0].Latency <= rs[0].Latency {
		t.Fatal("the Pi should be slower than the server")
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := NewSimulation(Config{Profile: "mainframe"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := NewSimulation(Config{Policy: "magic"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestReplayWithoutDeployFails(t *testing.T) {
	sim := newSim(t, Config{Policy: PolicyCold})
	if _, err := sim.Replay(SerialWorkload(time.Second, 1), nil); err == nil {
		t.Fatal("replay with no functions should fail")
	}
}

// A nil classFn serves everything with the one deployed function. With
// two deployed it used to pick the alphabetically first name (alpha,
// though zeta was deployed first), on the cluster from node 0's list:
// now both facades refuse, naming the candidates.
func TestReplayNilClassFnIsUnambiguous(t *testing.T) {
	sim := newSim(t, Config{Policy: PolicyHotC})
	cs, err := NewClusterSimulation(ClusterConfig{LocalImages: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	facades := []struct {
		name   string
		deploy func(FunctionSpec) error
		replay func() (int, error)
	}{
		{"simulation", sim.Deploy, func() (int, error) {
			rs, err := sim.Replay(SerialWorkload(time.Second, 2), nil)
			return len(rs), err
		}},
		{"cluster", cs.Deploy, func() (int, error) {
			rs, err := cs.Replay(SerialWorkload(time.Second, 2), nil)
			return len(rs), err
		}},
	}
	for _, f := range facades {
		if _, err := f.replay(); err == nil || !strings.Contains(err.Error(), "no functions deployed") {
			t.Fatalf("%s: replay with nothing deployed: %v", f.name, err)
		}
		if err := f.deploy(FunctionSpec{Name: "zeta", Runtime: Runtime{Image: "python:3.8"}, App: mustQR(t)}); err != nil {
			t.Fatal(err)
		}
		if n, err := f.replay(); err != nil || n != 2 {
			t.Fatalf("%s: one function deployed: %d results, %v", f.name, n, err)
		}
		if err := f.deploy(FunctionSpec{Name: "alpha", Runtime: Runtime{Image: "node:10"}, App: mustQR(t)}); err != nil {
			t.Fatal(err)
		}
		_, err := f.replay()
		if err == nil || !strings.Contains(err.Error(), "alpha") || !strings.Contains(err.Error(), "zeta") {
			t.Fatalf("%s: a nil classFn over alpha and zeta gave %v, want an error naming both", f.name, err)
		}
	}
}

// classFn is a pure mapping: a replay asks it once per distinct class,
// however many requests the class has.
func TestClassFnConsultedOncePerClass(t *testing.T) {
	s := newCampusSim(t, 0)
	w := CampusWorkload(1, 1.0, 120, 4)
	calls := map[int]int{}
	results, err := s.Replay(w, func(class int) string {
		calls[class]++
		return campusClassFn(class)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("classFn saw classes %v, want the four of the trace", calls)
	}
	for class, n := range calls {
		if n != 1 {
			t.Fatalf("classFn consulted %d times for class %d over %d requests, want once", n, class, len(w))
		}
	}
	for i, r := range results {
		if want := campusClassFn(w[i].Class); r.Function != want {
			t.Fatalf("request %d (class %d) served by %q, want %q", i, w[i].Class, r.Function, want)
		}
	}
}

func TestParseCommandFacade(t *testing.T) {
	rt, err := ParseCommand([]string{"--net", "host", "python:3.8", "app.py"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Key() == "" {
		t.Fatal("empty key")
	}
	rt2, err := ParseConfigFile([]byte(`{"image":"python:3.8","network":"host","cmd":["app.py"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Key() != rt2.Key() {
		t.Fatal("command and config file forms should agree")
	}
}

func TestPredictorFacade(t *testing.T) {
	for _, p := range []Predictor{NewPredictor(), NewExponentialSmoothing(0.8), NewMarkovChain(4)} {
		for i := 0; i < 10; i++ {
			p.Observe(float64(i))
		}
		if v := p.Predict(); v < 0 {
			t.Fatalf("%s predicted %v", p.Name(), v)
		}
	}
}

func TestAppConstructors(t *testing.T) {
	if _, err := AppQR("cobol"); err == nil {
		t.Fatal("unknown language accepted")
	}
	if _, err := AppRandomNumber("go"); err != nil {
		t.Fatal(err)
	}
	if app, err := AppQR(" Python "); err != nil || app.Lang != mustQR(t).Lang {
		t.Fatalf("AppQR(\" Python \") = %v, %v", app.Lang, err)
	}
	for _, app := range []App{AppV3(), AppTFAPI(), AppCassandra()} {
		if app.Name == "" {
			t.Fatal("unnamed app")
		}
	}
}

func TestAdvanceTimeAndMonitoring(t *testing.T) {
	sim := newSim(t, Config{Policy: PolicyKeepAlive, KeepAliveWindow: time.Minute})
	if err := sim.Deploy(FunctionSpec{Name: "qr", Runtime: Runtime{Image: "python:3.8"}, App: mustQR(t)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(SerialWorkload(time.Second, 1), nil); err != nil {
		t.Fatal(err)
	}
	if sim.LiveContainers() != 1 {
		t.Fatalf("live = %d", sim.LiveContainers())
	}
	before := sim.Now()
	sim.AdvanceTime(2 * time.Minute) // keep-alive lapses
	if sim.Now() <= before {
		t.Fatal("time did not advance")
	}
	if sim.LiveContainers() != 0 {
		t.Fatal("keep-alive expiry did not run during AdvanceTime")
	}
	if sim.HostCPUPct() <= 0 || sim.HostMemMB() <= 0 {
		t.Fatal("host monitoring broken")
	}
}

func TestCampusWorkloadFacade(t *testing.T) {
	w := CampusWorkload(1, 20, 60, 2)
	if len(w) == 0 {
		t.Fatal("empty campus workload")
	}
}

func TestBurstAndLinearWorkloads(t *testing.T) {
	if n := len(BurstWorkload(8, 10, []int{2}, 4, time.Second)); n != 8*3+80 {
		t.Fatalf("burst workload size = %d", n)
	}
	if n := len(LinearWorkload(2, 2, 3, time.Second)); n != 2+4+6 {
		t.Fatalf("linear workload size = %d", n)
	}
	if n := len(ParallelWorkload(3, 2, time.Second)); n != 6 {
		t.Fatalf("parallel workload size = %d", n)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if st := Summarize(nil); st.Requests != 0 || st.MeanMS != 0 {
		t.Fatalf("empty summary = %+v", st)
	}
}
