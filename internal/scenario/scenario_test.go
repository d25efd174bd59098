package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotc"
)

const minimalSpec = `{
  "name": "serial-study",
  "policy": "hotc",
  "functions": [{"name": "qr", "app": "qr-python"}],
  "workload": {"kind": "serial", "count": 10, "intervalSec": 30}
}`

func TestParseAndRunMinimal(t *testing.T) {
	spec, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "serial-study" || out.Policy != "hotc" {
		t.Fatalf("outcome header = %+v", out)
	}
	if out.Stats.Requests != 10 || out.Stats.ColdStarts != 1 {
		t.Fatalf("stats = %+v", out.Stats)
	}
	fo := out.PerFunction["qr"]
	if fo.Requests != 10 || fo.ColdStarts != 1 || fo.MeanMS <= 0 {
		t.Fatalf("per-function = %+v", fo)
	}
	if out.LiveContainers != 1 {
		t.Fatalf("live = %d", out.LiveContainers)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"functions":[],"workload":{"kind":"serial"}}`,
		`{"functions":[{"name":"","app":"qr-go"}],"workload":{"kind":"serial"}}`,
		`{"functions":[{"name":"x"}],"workload":{"kind":"serial"}}`,
		`{"functions":[{"name":"x","app":"qr-go","appProfile":{"name":"y","image":"a","language":"go","execMs":1}}],"workload":{"kind":"serial"}}`,
		`{"functions":[{"name":"x","app":"qr-go"},{"name":"x","app":"qr-go"}],"workload":{"kind":"serial"}}`,
		`{"functions":[{"name":"x","app":"qr-go"}],"workload":{}}`,
		`{"functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"serial"},"bogus":1}`,
	}
	for i, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}

func TestRunErrors(t *testing.T) {
	run := func(spec string) error {
		s, err := Parse([]byte(spec))
		if err != nil {
			t.Fatalf("parse: %v (%s)", err, spec)
		}
		_, err = s.Run()
		return err
	}
	// Unknown app.
	if err := run(`{"functions":[{"name":"x","app":"teleport"}],"workload":{"kind":"serial"}}`); err == nil {
		t.Error("unknown app accepted")
	}
	// Unknown policy.
	if err := run(`{"policy":"magic","functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"serial"}}`); err == nil {
		t.Error("unknown policy accepted")
	}
	// Unknown workload kind.
	if err := run(`{"functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"warp"}}`); err == nil {
		t.Error("unknown workload accepted")
	}
	// Unknown image.
	if err := run(`{"functions":[{"name":"x","app":"qr-go","image":"nope:1"}],"workload":{"kind":"serial"}}`); err == nil {
		t.Error("unknown image accepted")
	}
	// csv without file.
	if err := run(`{"functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"csv"}}`); err == nil {
		t.Error("csv without file accepted")
	}
}

func TestCustomProfileFunction(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "name": "custom",
	  "policy": "cold",
	  "functions": [{
	    "name": "api",
	    "appProfile": {"name":"api","image":"node:10","language":"node",
	                   "appInitMs":150,"execMs":30,"cpuPct":4,"memMB":50}
	  }],
	  "workload": {"kind": "serial", "count": 3, "intervalSec": 10}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.ColdStarts != 3 {
		t.Fatalf("cold policy should cold-start all: %+v", out.Stats)
	}
}

func TestCSVWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sched.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := hotc.SerialWorkload(1000, 5)
	if err := hotc.WriteWorkloadCSV(f, w); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec, err := Parse([]byte(`{
	  "functions": [{"name": "qr", "app": "qr-go"}],
	  "workload": {"kind": "csv", "file": "` + path + `"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Requests != 5 {
		t.Fatalf("requests = %d", out.Stats.Requests)
	}
}

func TestMultiFunctionClassMapping(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "functions": [
	    {"name": "a", "app": "qr-python"},
	    {"name": "b", "app": "qr-node"}
	  ],
	  "workload": {"kind": "parallel", "threads": 2, "rounds": 3, "intervalSec": 30}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.PerFunction["a"].Requests != 3 || out.PerFunction["b"].Requests != 3 {
		t.Fatalf("per-function = %+v", out.PerFunction)
	}
}

func TestClusterScenario(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "name": "mini-cluster",
	  "cluster": {"nodes": 3, "routing": "warm"},
	  "functions": [{"name": "svc", "app": "qr-python"}],
	  "workload": {"kind": "serial", "count": 9, "intervalSec": 30}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Requests != 9 {
		t.Fatalf("requests = %d", out.Stats.Requests)
	}
	if len(out.ServedByNode) != 3 {
		t.Fatalf("served by node = %v", out.ServedByNode)
	}
	// Warm placement: only the first request cold-starts.
	if out.Stats.ColdStarts != 1 {
		t.Fatalf("cold = %d", out.Stats.ColdStarts)
	}
	if out.Policy == "" {
		t.Fatal("empty policy label")
	}
}

func TestClusterScenarioBadRouting(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "cluster": {"routing": "warp"},
	  "functions": [{"name": "svc", "app": "qr-python"}],
	  "workload": {"kind": "serial"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Run(); err == nil {
		t.Fatal("bad routing accepted")
	}
}

func TestResilienceSpecLowering(t *testing.T) {
	// Defaults alone reproduce hotc.DefaultResilience.
	if got := (ResilienceSpec{Defaults: true}).config(); got != hotc.DefaultResilience() {
		t.Fatalf("defaults lowering = %+v", got)
	}
	// Overrides win over defaults; unset fields keep the default.
	got := ResilienceSpec{Defaults: true, BreakerThreshold: 9, RetryBackoffMs: 250}.config()
	want := hotc.DefaultResilience()
	want.BreakerThreshold = 9
	want.RetryBackoff = 250 * time.Millisecond
	if got != want {
		t.Fatalf("override lowering = %+v, want %+v", got, want)
	}
	// Without Defaults only the set fields are non-zero.
	bare := ResilienceSpec{ExecRetries: 1}.config()
	if bare.ExecRetries != 1 || bare.MaxAcquireRetries != 0 || bare.BreakerThreshold != 0 {
		t.Fatalf("bare lowering = %+v", bare)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	// A cluster spec cannot carry faults or resilience knobs.
	bad := `{"functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"serial"},
		"cluster":{"nodes":2},"faults":{"rules":[{"createFailRate":0.1}]}}`
	if _, err := Parse([]byte(bad)); err == nil {
		t.Error("cluster+faults accepted")
	}
	// Invalid fault rates are rejected at parse time.
	bad = `{"functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"serial"},
		"faults":{"rules":[{"createFailRate":1.5}]}}`
	if _, err := Parse([]byte(bad)); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
}

// A cluster run reads none of these, so a spec that sets one is refused
// by name instead of quietly measuring something else.
func TestClusterSpecRefusesSingleHostFields(t *testing.T) {
	for _, tc := range []struct{ field, top, fn string }{
		{field: "sharing", top: `"sharing":true,`},
		{field: "sharingIdleGraceSec", top: `"sharingIdleGraceSec":5,`},
		{field: "maxConcurrency", fn: `,"maxConcurrency":2`},
	} {
		spec := `{"cluster":{"nodes":2},` + tc.top +
			`"functions":[{"name":"x","app":"qr-go"` + tc.fn + `}],"workload":{"kind":"serial"}}`
		_, err := Parse([]byte(spec))
		if err == nil {
			t.Errorf("%s: accepted beside \"cluster\"", tc.field)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+tc.field+`"`) || !strings.Contains(msg, "single-host only") {
			t.Errorf("%s: error %q does not name the field as single-host only", tc.field, msg)
		}
	}
}
