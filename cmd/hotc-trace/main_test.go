package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotc/internal/obs"
)

// TestMain lets a test run hotc-trace itself: re-executed with
// HOTC_TRACE_MAIN=1, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("HOTC_TRACE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// hotcTrace runs one invocation and returns its standard output and
// exit status.
func hotcTrace(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOTC_TRACE_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("hotc-trace %v: %v", args, err)
	return "", 0
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The generators are seeded: the same arguments print the same bytes.
func TestGeneratorsAreReproducible(t *testing.T) {
	for _, args := range [][]string{
		{"campus", "-minutes", "30", "-scale", "20"},
		{"pattern", "-kind", "burst", "-rounds", "6"},
		{"corpus", "-projects", "50"},
		{"key", "-e", "B=2", "-e", "A=1", "python:3.8", "app.py"},
	} {
		first, code := hotcTrace(t, args...)
		if code != 0 || first == "" {
			t.Errorf("%v: exit %d, output %q", args, code, first)
			continue
		}
		if second, _ := hotcTrace(t, args...); second != first {
			t.Errorf("%v printed two different outputs:\n%s\n--- and ---\n%s", args, first, second)
		}
	}
}

func TestParseDockerfile(t *testing.T) {
	path := writeFile(t, "Dockerfile", "FROM python:3.8\nENV A=1\nEXPOSE 8080\nCMD [\"python\", \"app.py\"]\n")
	out, code := hotcTrace(t, "parse", path)
	if code != 0 || !strings.Contains(out, "base image:  python:3.8 (repository python)") || !strings.Contains(out, "exposed ports: [8080]") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestSpansPrintsPhaseTable(t *testing.T) {
	var log bytes.Buffer
	ms := time.Millisecond
	if err := obs.WriteSpans(&log, []obs.Span{
		{ID: 1, Function: "f", ClientIn: ms, GatewayIn: ms, WatchdogIn: 2 * ms, FuncStart: 9 * ms,
			FuncDone: 12 * ms, WatchdogOut: 13 * ms, ClientOut: 14 * ms},
		{ID: 2, Function: "f", Reused: true, ClientIn: 20 * ms, GatewayIn: 20 * ms, WatchdogIn: 21 * ms,
			FuncStart: 21 * ms, FuncDone: 24 * ms, WatchdogOut: 25 * ms, ClientOut: 26 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	out, code := hotcTrace(t, "spans", writeFile(t, "spans.jsonl", log.String()))
	if code != 0 || !strings.Contains(out, "spans: 2 total, 2 ok, 0 failed, 1 reused") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, phase := range obs.Phases() {
		if !strings.Contains(out, "\n"+phase+" ") {
			t.Errorf("no %q row in the phase table:\n%s", phase, out)
		}
	}
}

// metrics is the strict exposition check scripts/verify.sh runs against
// a live daemon: it accepts what a registry writes and exits non-zero on
// a histogram whose buckets are not cumulative.
func TestMetricsValidatesExposition(t *testing.T) {
	reg := obs.New()
	reg.Counter("hotc_things_total", "Things.").Inc()
	reg.Histogram("hotc_wait_ms", "Wait.", []float64{1, 2}).Observe(1.5)
	var good bytes.Buffer
	reg.WritePrometheus(&good)
	out, code := hotcTrace(t, "metrics", writeFile(t, "good.txt", good.String()))
	if code != 0 || !strings.Contains(out, "exposition OK: 2 families") || !strings.Contains(out, "hotc_wait_ms") {
		t.Fatalf("a registry's own exposition: exit %d, output:\n%s", code, out)
	}

	bad := strings.Replace(good.String(), `hotc_wait_ms_bucket{le="2"} 1`, `hotc_wait_ms_bucket{le="2"} 0`, 1)
	bad = strings.Replace(bad, `hotc_wait_ms_bucket{le="1"} 0`, `hotc_wait_ms_bucket{le="1"} 1`, 1)
	if bad == good.String() {
		t.Fatalf("setup: no bucket lines to corrupt in:\n%s", good.String())
	}
	if _, code := hotcTrace(t, "metrics", writeFile(t, "bad.txt", bad)); code == 0 {
		t.Fatalf("a non-cumulative bucket passed the check:\n%s", bad)
	}
}

func TestNoSubcommandIsUsageError(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}} {
		if _, code := hotcTrace(t, args...); code != 2 {
			t.Errorf("hotc-trace %v exited %d, want 2", args, code)
		}
	}
}
