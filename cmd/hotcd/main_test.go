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

// TestMain lets a test run hotcd itself: re-executed with HOTCD_MAIN=1,
// the test binary is the daemon.
func TestMain(m *testing.M) {
	if os.Getenv("HOTCD_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func hotcd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOTCD_MAIN=1")
	return cmd
}

// hotcd is the one place flags become a live.PoolConfig: a value the
// gateway would have to guess about is refused with exit status 2
// before anything listens, naming the field or the flag.
func TestBadConfigRefused(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names string
	}{
		{[]string{"-share", "-share-policy", "bogus"}, "PoolConfig.SharePolicy"},
		{[]string{"-queue-depth", "-1"}, "PoolConfig.QueueDepth"},
		{[]string{"-boot-split", "1:2"}, "-boot-split"},
		{[]string{"-predictor", "bogus"}, "bogus"},
	} {
		out, err := hotcd(append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v ended with %v, want exit status 2; output:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.names) {
			t.Errorf("%v: output does not name %s:\n%s", tc.args, tc.names, out)
		}
	}
}

// The start-up banner reports the configuration the gateway runs with,
// not the raw flags: a 0 that resolves to a default prints the default,
// a negative "none" prints none.
func TestBannerPrintsResolvedConfig(t *testing.T) {
	cmd := hotcd("-addr", "127.0.0.1:0", "-preload=false", "-share", "-share-idle-grace", "0",
		"-trace-sample", "0", "-trace-slow-ms", "-1", "-prefork", "-prefork-size", "0", "-control-interval", "0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A daemon that never prints its banner must not hang the test.
	watchdog := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	var banner strings.Builder
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		banner.WriteString(lines.Text() + "\n")
		if strings.HasPrefix(lines.Text(), "metrics:") { // the last unconditional line
			break
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	for _, want := range []string{
		"idle-grace=250ms", "sample=0.01 ", "slow=none", "pool size=4 ", "interval=2s ",
	} {
		if !strings.Contains(banner.String(), want) {
			t.Errorf("banner lacks %q:\n%s", want, banner.String())
		}
	}
}
