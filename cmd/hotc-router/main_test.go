package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run hotc-router itself: re-executed with
// HOTC_ROUTER_MAIN=1, the test binary is the router.
func TestMain(m *testing.M) {
	if os.Getenv("HOTC_ROUTER_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func hotcRouter(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOTC_ROUTER_MAIN=1")
	return cmd
}

// wantExit2 runs the router to completion and requires exit status 2
// with names somewhere in its output.
func wantExit2(t *testing.T, names string, args ...string) {
	t.Helper()
	out, err := hotcRouter(args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%v ended with %v, want exit status 2; output:\n%s", args, err, out)
	}
	if !strings.Contains(string(out), names) {
		t.Errorf("%v: output does not name %s:\n%s", args, names, out)
	}
}

// The start-up banner reports the configuration the router runs with,
// not the raw flags: a 0 that resolves to a default prints the default.
func TestBannerPrintsResolvedConfig(t *testing.T) {
	// Port 1 refuses connections: the member is listed unreachable.
	cmd := hotcRouter("-addr", "127.0.0.1:0", "-nodes", "127.0.0.1:1",
		"-max-attempts", "0", "-vnodes", "0", "-poll-interval", "0", "-probe-failures", "0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A router that never prints its banner must not hang the test.
	watchdog := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	var banner strings.Builder
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		banner.WriteString(lines.Text() + "\n")
		if strings.HasPrefix(lines.Text(), "metrics:") { // the last line
			break
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	for _, want := range []string{
		"policy: warm (vnodes=64 max-attempts=3)", "poll=500ms unhealthy after 3 misses",
	} {
		if !strings.Contains(banner.String(), want) {
			t.Errorf("banner lacks %q:\n%s", want, banner.String())
		}
	}
}

// A negative count, period or size means nothing the router could run
// with: each is refused before anything listens, naming the flag.
func TestBadFlagsRefused(t *testing.T) {
	for _, bad := range [][2]string{
		{"-vnodes", "-1"}, {"-poll-interval", "-1s"}, {"-probe-failures", "-1"},
		{"-max-attempts", "-1"}, {"-spill-max-body", "-1"},
	} {
		wantExit2(t, bad[0], "-addr", "127.0.0.1:0", "-nodes", "127.0.0.1:1", bad[0], bad[1])
	}
}

// A router with no members or an unknown placement policy is a usage
// error too.
func TestNoNodesOrUnknownPolicyRefused(t *testing.T) {
	wantExit2(t, "-nodes", "-addr", "127.0.0.1:0")
	wantExit2(t, "bogus", "-addr", "127.0.0.1:0", "-nodes", "127.0.0.1:1", "-policy", "bogus")
}
