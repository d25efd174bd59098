package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets a test run hotc-sim itself: re-executed with
// HOTC_SIM_MAIN=1, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("HOTC_SIM_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func hotcSim(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOTC_SIM_MAIN=1")
	return cmd
}

// stdout runs hotc-sim to exit 0 and returns what it printed.
func stdout(t *testing.T, args ...string) string {
	t.Helper()
	var errb bytes.Buffer
	cmd := hotcSim(args...)
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hotc-sim %v: %v\n%s", args, err, errb.String())
	}
	return string(out)
}

var statField = regexp.MustCompile(`(\w+)=([0-9.]+)`)

// stats parses the "requests=… cold=… mean=…" line both output shapes
// print.
func stats(t *testing.T, out string) map[string]string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "requests=") {
			continue
		}
		fields := map[string]string{}
		for _, m := range statField.FindAllStringSubmatch(line, -1) {
			fields[m[1]] = m[2]
		}
		return fields
	}
	t.Fatalf("no stats line in:\n%s", out)
	return nil
}

// Every shipped spec runs to exit 0 and, the simulation being virtual
// time, prints the same bytes twice.
func TestShippedScenariosRunReproducibly(t *testing.T) {
	specs, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	for _, spec := range specs {
		if first, second := stdout(t, "-spec", spec), stdout(t, "-spec", spec); first != second {
			t.Errorf("%s: two runs differ:\n%s\n---\n%s", spec, first, second)
		}
	}
}

// The scenario flags are a second spelling of a spec, not a second
// execution path: a flag invocation and the spec it stands for report
// the same run. (The flag shape prints no errors= field; the spec must
// report none.)
func TestFlagsLowerToSpec(t *testing.T) {
	const fn0 = `"functions":[{"name":"fn-0","app":"qr-python","network":"bridge"}]`
	for _, tc := range []struct {
		pattern string
		flags   []string
		spec    string
	}{
		{"serial", []string{"-count", "8"},
			fn0 + `,"workload":{"kind":"serial","count":8}`},
		{"parallel", []string{"-threads", "3", "-rounds", "4"},
			`"functions":[{"name":"fn-0","app":"qr-python","network":"bridge","env":["THREAD=0"]},
			{"name":"fn-1","app":"qr-python","network":"bridge","env":["THREAD=1"]},
			{"name":"fn-2","app":"qr-python","network":"bridge","env":["THREAD=2"]}],
			"workload":{"kind":"parallel","threads":3,"rounds":4}`},
		{"linear-dec", []string{"-rounds", "4"},
			fn0 + `,"workload":{"kind":"linear","start":8,"step":-2,"rounds":4}`},
		{"exp-dec", []string{"-rounds", "4"},
			fn0 + `,"workload":{"kind":"exp","decreasing":true,"rounds":4}`},
		{"burst", []string{"-rounds", "6"},
			fn0 + `,"workload":{"kind":"burst","rounds":6}`},
		{"campus", []string{"-minutes", "10"},
			fn0 + `,"workload":{"kind":"campus","minutes":10}`},
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		spec := `{"seed":42,"keepAliveSec":900,` + tc.spec + `}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		byFlags := stats(t, stdout(t, append([]string{"-pattern", tc.pattern}, tc.flags...)...))
		bySpec := stats(t, stdout(t, "-spec", path))
		if bySpec["errors"] != "0" {
			t.Errorf("%s: spec run reports errors=%s", tc.pattern, bySpec["errors"])
		}
		for _, field := range []string{"requests", "cold", "reused", "mean", "p99", "max"} {
			if byFlags[field] == "" || byFlags[field] != bySpec[field] {
				t.Errorf("%s: %s=%q by flags, %q by spec", tc.pattern, field, byFlags[field], bySpec[field])
			}
		}
	}
}

// What hotc-sim cannot honour it refuses, exit 1, naming the field or
// the flag, instead of running something else.
func TestRefusals(t *testing.T) {
	write := func(spec string) string {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const body = `"functions":[{"name":"x","app":"qr-go"}],"workload":{"kind":"serial","count":2}}`
	single := write(`{` + body)
	cluster := write(`{"cluster":{"nodes":2},` + body)
	for _, tc := range []struct {
		args  []string
		names string
	}{
		{[]string{"-spec", write(`{"polcy":"hotc",` + body)}, `"polcy"`},
		{[]string{"-spec", write(`{"cluster":{"nodes":2},"sharing":true,` + body)}, `"sharing"`},
		{[]string{"-spec", single, "-policy", "cold"}, "-policy"},
		{[]string{"-spec", single, "-pattern", "burst"}, "-pattern"},
		{[]string{"-spec", single, "-v"}, "-v"},
		{[]string{"-spec", cluster, "-report"}, "-report"},
		{[]string{"-spec", cluster, "-span-log", filepath.Join(t.TempDir(), "s.jsonl")}, "-span-log"},
		{[]string{"-spec", cluster, "-metrics-dump", filepath.Join(t.TempDir(), "m.jsonl")}, "-metrics-dump"},
		{[]string{"-pattern", "zigzag"}, `"zigzag"`},
	} {
		out, err := hotcSim(tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v ended with %v, want exit status 1; output:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.names) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.names, out)
		}
	}
}

// The output flags work beside -spec: one span per request, a metrics
// dump and the phase table, from the same run.
func TestSpecHonoursOutputFlags(t *testing.T) {
	dir := t.TempDir()
	spans, metrics := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "metrics.jsonl")
	out := stdout(t, "-spec", "../../scenarios/serial-hotc.json", "-report", "-span-log", spans, "-metrics-dump", metrics)
	st := stats(t, out)
	if st["requests"] != "20" || st["errors"] != "0" {
		t.Fatalf("serial-hotc ran %s requests, %s errors, want 20 and 0", st["requests"], st["errors"])
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 20 {
		t.Errorf("%d spans written for 20 requests", n)
	}
	if data, err := os.ReadFile(metrics); err != nil || !bytes.Contains(data, []byte("hotc_requests_total")) {
		t.Errorf("metrics dump lacks hotc_requests_total (err %v)", err)
	}
	if !strings.Contains(out, "latency breakdown (spans):") {
		t.Errorf("-report printed no phase table:\n%s", out)
	}
}
