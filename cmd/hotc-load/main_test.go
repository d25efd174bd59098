package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run hotc-load itself: re-executed with
// HOTC_LOAD_MAIN=1, the test binary is the CLI.
func TestMain(m *testing.M) {
	if os.Getenv("HOTC_LOAD_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// A self-hosted run validates its daemon config before booting it: an
// unknown share policy is refused with the field named, not silently
// run as same-image.
func TestBadSharePolicyRefused(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-share", "-share-policy", "bogus", "-duration", "50ms", "-rate", "20")
	cmd.Env = append(os.Environ(), "HOTC_LOAD_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("run ended with %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "PoolConfig.SharePolicy") {
		t.Fatalf("output does not name the field:\n%s", out)
	}
}
