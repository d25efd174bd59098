package config

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeDefaultsNetwork(t *testing.T) {
	r := Runtime{Image: " python:3.8 "}
	n := r.Normalize()
	if n.Image != "python:3.8" {
		t.Fatalf("image = %q", n.Image)
	}
	if n.Network != "bridge" {
		t.Fatalf("network = %q, want bridge default", n.Network)
	}
}

func TestNormalizeSortsEnvAndVolumes(t *testing.T) {
	r := Runtime{
		Image:   "alpine",
		Env:     []string{"B=2", "A=1"},
		Volumes: []string{"/z:/z", "/a:/a"},
	}
	n := r.Normalize()
	if n.Env[0] != "A=1" || n.Volumes[0] != "/a:/a" {
		t.Fatalf("not sorted: env=%v vol=%v", n.Env, n.Volumes)
	}
}

func TestNormalizeDropsEmptyEntries(t *testing.T) {
	r := Runtime{Image: "alpine", Env: []string{" ", ""}}
	if n := r.Normalize(); n.Env != nil {
		t.Fatalf("env = %v, want nil", n.Env)
	}
}

func TestKeyEqualForEquivalentConfigs(t *testing.T) {
	a := Runtime{Image: "alpine", Env: []string{"A=1", "B=2"}, Network: "Bridge"}
	b := Runtime{Image: " alpine", Env: []string{"B=2", "A=1"}, Network: "bridge"}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent configs got different keys:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	base := Runtime{Image: "alpine", Network: "bridge"}
	variants := []Runtime{
		{Image: "ubuntu", Network: "bridge"},
		{Image: "alpine", Network: "host"},
		{Image: "alpine", Network: "bridge", UTS: "host"},
		{Image: "alpine", Network: "bridge", IPC: "host"},
		{Image: "alpine", Network: "bridge", Env: []string{"A=1"}},
		{Image: "alpine", Network: "bridge", MemoryMB: 512},
		{Image: "alpine", Network: "bridge", CPUShares: 2},
		{Image: "alpine", Network: "bridge", Cmd: []string{"sh"}},
		{Image: "alpine", Network: "bridge", Volumes: []string{"/a:/b"}},
		{Image: "alpine", Network: "bridge", Labels: map[string]string{"x": "y"}},
	}
	seen := map[Key]bool{base.Key(): true}
	for i, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Fatalf("variant %d collided with a previous key: %s", i, k)
		}
		seen[k] = true
	}
}

func TestRelaxedKeyIgnoresExecOptions(t *testing.T) {
	a := Runtime{Image: "alpine", Network: "bridge", Env: []string{"A=1"}, Cmd: []string{"run-a"}}
	b := Runtime{Image: "alpine", Network: "bridge", Env: []string{"B=2"}, Cmd: []string{"run-b"}}
	if a.Key() == b.Key() {
		t.Fatal("full keys should differ")
	}
	if a.Relaxed() != b.Relaxed() {
		t.Fatal("relaxed keys should match")
	}
}

func TestRelaxedKeyKeepsNamespaceIdentity(t *testing.T) {
	a := Runtime{Image: "alpine", Network: "bridge"}
	b := Runtime{Image: "alpine", Network: "overlay"}
	if a.Relaxed() == b.Relaxed() {
		t.Fatal("different network modes must have different relaxed keys")
	}
}

func TestDeltaFrom(t *testing.T) {
	base := Runtime{Image: "alpine", Env: []string{"A=1"}, Cmd: []string{"old"}}
	req := Runtime{Image: "alpine", Env: []string{"B=2"}, Cmd: []string{"new"}}
	d := req.DeltaFrom(base)
	if d.Empty() {
		t.Fatal("delta should not be empty")
	}
	if len(d.Env) != 1 || d.Env[0] != "B=2" {
		t.Fatalf("delta env = %v", d.Env)
	}
	if len(d.Cmd) != 1 || d.Cmd[0] != "new" {
		t.Fatalf("delta cmd = %v", d.Cmd)
	}
	same := req.DeltaFrom(req)
	if !same.Empty() {
		t.Fatalf("identical configs should yield empty delta, got %+v", same)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		r    Runtime
		ok   bool
	}{
		{"minimal", Runtime{Image: "alpine"}, true},
		{"no image", Runtime{}, false},
		{"bad network", Runtime{Image: "a", Network: "warp"}, false},
		{"container net", Runtime{Image: "a", Network: "container:proxy"}, true},
		{"overlay", Runtime{Image: "a", Network: "overlay"}, true},
		{"bad uts", Runtime{Image: "a", UTS: "private-ish"}, false},
		{"host uts", Runtime{Image: "a", UTS: "host"}, true},
		{"bad ipc", Runtime{Image: "a", IPC: "shared"}, false},
		{"container ipc", Runtime{Image: "a", IPC: "container:x"}, true},
		{"negative memory", Runtime{Image: "a", MemoryMB: -1}, false},
		{"negative cpu", Runtime{Image: "a", CPUShares: -1}, false},
		{"bad env", Runtime{Image: "a", Env: []string{"NOEQUALS"}}, false},
		{"bad volume", Runtime{Image: "a", Volumes: []string{"nocolon"}}, false},
	}
	for _, tc := range cases {
		err := tc.r.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseCommand(t *testing.T) {
	r, err := ParseCommand([]string{
		"--net", "host", "--uts=host", "-e", "A=1", "-e", "B=2",
		"-v", "/data:/data", "-m", "512m", "--cpu-shares", "2",
		"-l", "team=ml", "--entrypoint", "python app.py",
		"tensorflow:1.13", "serve", "--port", "8080",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Image != "tensorflow:1.13" {
		t.Fatalf("image = %q", r.Image)
	}
	if r.Network != "host" || r.UTS != "host" {
		t.Fatalf("net/uts = %q/%q", r.Network, r.UTS)
	}
	if len(r.Env) != 2 || r.MemoryMB != 512 || r.CPUShares != 2 {
		t.Fatalf("env/mem/cpu = %v/%d/%d", r.Env, r.MemoryMB, r.CPUShares)
	}
	if len(r.Cmd) != 3 || r.Cmd[0] != "serve" {
		t.Fatalf("cmd = %v", r.Cmd)
	}
	if r.Labels["team"] != "ml" {
		t.Fatalf("labels = %v", r.Labels)
	}
	if len(r.Entrypoint) != 2 {
		t.Fatalf("entrypoint = %v", r.Entrypoint)
	}
}

func TestParseCommandMemorySuffixes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{{"2g", 2048}, {"512m", 512}, {"2048k", 2}, {"256", 256}} {
		r, err := ParseCommand([]string{"-m", tc.in, "alpine"})
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if r.MemoryMB != tc.want {
			t.Fatalf("%s: got %d MB, want %d", tc.in, r.MemoryMB, tc.want)
		}
	}
}

func TestParseCommandErrors(t *testing.T) {
	cases := [][]string{
		{},                          // no image
		{"--net"},                   // missing value
		{"--bogus", "x", "alpine"},  // unknown flag
		{"-m", "lots", "alpine"},    // bad memory
		{"--cpu-shares", "x", "a"},  // bad int
		{"--net", "warp", "alpine"}, // fails validation
	}
	for i, args := range cases {
		if _, err := ParseCommand(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestParseCommandIgnoresNonIdentityFlags(t *testing.T) {
	r, err := ParseCommand([]string{"-d", "--rm", "-it", "alpine"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Image != "alpine" {
		t.Fatalf("image = %q", r.Image)
	}
}

func TestParseFileRoundTrip(t *testing.T) {
	orig := Runtime{
		Image:   "python:3.8",
		Network: "overlay",
		Env:     []string{"MODEL=v3"},
		Labels:  map[string]string{"app": "imgrec"},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != orig.Key() {
		t.Fatalf("round trip changed key:\n%s\n%s", orig.Key(), back.Key())
	}
}

func TestParseFileRejectsUnknownFields(t *testing.T) {
	if _, err := ParseFile([]byte(`{"image":"a","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseFileRejectsInvalid(t *testing.T) {
	if _, err := ParseFile([]byte(`{"network":"bridge"}`)); err == nil {
		t.Fatal("missing image accepted")
	}
	if _, err := ParseFile([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// Property: Key is stable under normalisation (Key(Normalize(r)) ==
// Key(r)) and under env/volume permutation.
func TestPropertyKeyStability(t *testing.T) {
	f := func(img string, env []string, swap bool) bool {
		img = strings.TrimSpace(img)
		if img == "" {
			img = "alpine"
		}
		// Make env entries well-formed.
		cleaned := make([]string, 0, len(env))
		for i, e := range env {
			e = strings.ReplaceAll(strings.TrimSpace(e), "=", "-")
			if e == "" {
				continue
			}
			cleaned = append(cleaned, e+"="+string(rune('a'+i%26)))
		}
		r := Runtime{Image: img, Env: cleaned}
		k1 := r.Key()
		if r.Normalize().Key() != k1 {
			return false
		}
		if swap && len(cleaned) > 1 {
			rev := make([]string, len(cleaned))
			for i, e := range cleaned {
				rev[len(cleaned)-1-i] = e
			}
			r2 := Runtime{Image: img, Env: rev}
			if r2.Key() != k1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: relaxed keys are a coarsening of full keys — equal full
// keys imply equal relaxed keys.
func TestPropertyRelaxedCoarsensFull(t *testing.T) {
	f := func(img, net string, mem uint8, envTag uint8) bool {
		nets := []string{"none", "bridge", "host", "overlay"}
		r1 := Runtime{Image: "img" + img, Network: nets[int(mem)%len(nets)], MemoryMB: int(mem)}
		r2 := r1
		r2.Env = []string{"T=" + strings.Repeat("x", int(envTag%5))}
		if r1.Key() == r2.Key() && r1.Relaxed() != r2.Relaxed() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
