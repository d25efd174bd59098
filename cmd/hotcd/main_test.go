package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
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
		{[]string{"-predictor", "bogus"}, "bogus"},
		{[]string{"-backend", "subprocess"}, "PoolConfig.Backend"},
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
		"idle-grace=250ms", "sample=0.01 ", "slow=none", "pool size=4 ", "interval=2s ", "backend: in-process\n",
	} {
		if !strings.Contains(banner.String(), want) {
			t.Errorf("banner lacks %q:\n%s", want, banner.String())
		}
	}
}

// parse runs hotcd's flag set and its post-parse glue over args.
func parse(t *testing.T, args ...string) daemon {
	t.Helper()
	var d daemon
	fs := d.flags("hotcd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if err := d.resolve(); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return d
}

// nonDefault gives every flag of hotcd a value other than its default.
var nonDefault = map[string]string{
	"addr": "127.0.0.1:0", "backend": "socket", "keepalive": "1m", "max-warm": "3",
	"reap-interval": "2s", "control-interval": "3s", "predictor": "off", "preload": "false",
	"breaker-threshold": "2", "breaker-open": "1m", "pprof": "true", "max-body-size": "1024",
	"max-inflight": "4", "queue-depth": "5", "default-deadline": "1s", "memory-budget": "1048576",
	"trace-capacity": "64", "trace-sample": "0.5", "trace-slow-ms": "7", "slo-latency-ms": "9",
	"slo-coldstart-pct": "2", "prefork": "true", "prefork-size": "2", "prefork-boot": "11",
	"layer-cache": "false", "share": "true", "share-policy": "any", "share-wipe-ms": "3",
	"share-idle-grace": "1s",
}

// view is what a flag can set: the config, with NewPredictor reduced to
// whether it is armed, and the daemon's own address and preload.
func view(d daemon) any {
	cfg := d.cfg
	armed := cfg.NewPredictor != nil
	cfg.NewPredictor = nil
	return struct {
		cfg     any
		armed   bool
		addr    string
		preload bool
	}{cfg, armed, d.addr, d.preload}
}

// Every knob of hotcd reaches the gateway: each flag alone moves what
// it is bound to, every flag at once moves every PoolConfig field, and
// -h lists exactly the flags bound here.
func TestEveryFlagSetsItsField(t *testing.T) {
	var names []string
	(&daemon{}).flags("hotcd", flag.ContinueOnError).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if len(names) != len(nonDefault) {
		t.Errorf("%d flags, %d non-default values: %v", len(names), len(nonDefault), names)
	}
	def := parse(t)
	var all []string
	for _, name := range names {
		v, ok := nonDefault[name]
		if !ok {
			t.Errorf("-%s has no non-default value here", name)
			continue
		}
		arg := "-" + name + "=" + v
		all = append(all, arg)
		if reflect.DeepEqual(view(parse(t, arg)), view(def)) {
			t.Errorf("%s leaves the config unchanged", arg)
		}
	}
	got, want := reflect.ValueOf(parse(t, all...).cfg), reflect.ValueOf(def.cfg)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if name != "NewPredictor" && reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			t.Errorf("PoolConfig.%s = %v with every flag set, as by default", name, got.Field(i))
		}
	}

	out, err := hotcd("-h").CombinedOutput()
	if err != nil {
		t.Fatalf("hotcd -h: %v\n%s", err, out)
	}
	if n := strings.Count(string(out), "\n  -"); n != 29 {
		t.Errorf("hotcd -h lists %d flags, want 29:\n%s", n, out)
	}
}

var update = flag.Bool("update", false, "rewrite README.md's flag table from hotcd's flags")

// README's flag table is what hotcd -h prints, rendered from the same
// FlagSet into the region between its generated markers: a flag added,
// renamed or given another default or usage changes it, and -update
// rewrites it.
func TestDocTables(t *testing.T) {
	var b strings.Builder
	b.WriteString("| flag | default | what it does |\n|---|---|---|\n")
	(&daemon{}).flags("hotcd", flag.ContinueOnError).VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "| `-%s` | `%s` | %s |\n", f.Name, f.DefValue, strings.ReplaceAll(f.Usage, "|", `\|`))
	})
	const path, begin, end = "../../README.md", "<!-- generated: hotcd-flags -->\n", "<!-- end: hotcd-flags -->"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(doc), begin)
	old, tail, ok2 := strings.Cut(rest, end)
	switch {
	case !ok || !ok2:
		t.Fatalf("README.md has no hotcd-flags region")
	case old == b.String():
	case *update:
		if err := os.WriteFile(path, []byte(head+begin+b.String()+end+tail), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Errorf("README.md's flag table is not hotcd's flags (go test -run TestDocTables -update rewrites it):\n%s", b.String())
	}
}
