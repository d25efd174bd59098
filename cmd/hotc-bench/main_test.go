package main

import (
	"errors"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestMain lets a test run hotc-bench itself: re-executed with
// HOTC_BENCH_MAIN=1, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("HOTC_BENCH_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func hotcBench(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOTC_BENCH_MAIN=1")
	return cmd
}

func TestListNamesEveryExperiment(t *testing.T) {
	out, err := hotcBench("-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(experiments))
	for id := range experiments {
		want = append(want, id)
	}
	sort.Strings(want)
	if got := strings.Fields(string(out)); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("-list printed %v, want %v", got, want)
	}
}

func TestOnlyRunsTheNamedExperiment(t *testing.T) {
	out, err := hotcBench("-only", "fig11").Output()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "\n== "); !strings.HasPrefix(string(out), "== fig11:") || n != 0 {
		t.Fatalf("-only fig11 printed %d other reports:\n%s", n, out)
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	out, err := hotcBench("-only", "fig99").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-only fig99 ended with %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "fig99") {
		t.Fatalf("output does not name the experiment:\n%s", out)
	}
}
