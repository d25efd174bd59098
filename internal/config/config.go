// Package config implements HotC's Parameter Analysis stage (§IV.B):
// it parses a user command or configuration file into a normalised
// container runtime description and derives the canonical key that the
// runtime pool uses to decide whether two containers are the same type
// of runtime environment.
//
// Paper: "The parameter includes container images, network
// configuration, UTS settings, IPC settings, execution options, etc.
// HotC treats containers with identical parameter configurations as
// the same type of runtime environment."
package config

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Runtime describes a container runtime configuration: everything that
// determines whether an existing container can serve a request.
type Runtime struct {
	// Image is the container image reference, e.g. "python:3.8-alpine".
	Image string `json:"image"`

	// Network is the network mode name: "none", "bridge", "host",
	// "container:<name>", "overlay", "routing". The network package
	// interprets it; config only normalises it.
	Network string `json:"network,omitempty"`

	// UTS is the UTS namespace mode ("" for private, "host" to share).
	UTS string `json:"uts,omitempty"`

	// IPC is the IPC namespace mode ("", "host", or
	// "container:<name>").
	IPC string `json:"ipc,omitempty"`

	// Env holds KEY=VALUE environment variables. Order does not
	// matter; Normalize sorts them.
	Env []string `json:"env,omitempty"`

	// Volumes holds host:container mount specs. HotC additionally
	// assigns every container its own scratch volume (§IV.B), which is
	// not part of the identity key.
	Volumes []string `json:"volumes,omitempty"`

	// MemoryMB is the memory limit (0 = unlimited).
	MemoryMB int `json:"memory_mb,omitempty"`

	// CPUShares is the relative CPU weight (0 = default).
	CPUShares int `json:"cpu_shares,omitempty"`

	// Entrypoint and Cmd are the execution options.
	Entrypoint []string `json:"entrypoint,omitempty"`
	Cmd        []string `json:"cmd,omitempty"`

	// Labels are free-form key=value metadata.
	Labels map[string]string `json:"labels,omitempty"`
}

// Key is the canonical formatted parameter configuration used as the
// pool's map key (§IV.B: "The key is the formatted parameter
// configurations for each container").
type Key string

// RelaxedKey is the reduced key proposed in the paper's future work
// (§VII: "adopting a subset of the available parameters as the key").
// It covers only the parameters that cannot be changed on a live
// container (image and namespace configuration); everything else can
// be applied at exec time.
type RelaxedKey string

// Normalize returns a canonicalised copy: trimmed fields, defaulted
// network mode, sorted environment and volumes, and non-nil slices
// replaced by nil when empty so that equivalent configurations compare
// equal.
func (r Runtime) Normalize() Runtime {
	n := r
	n.Image = strings.TrimSpace(r.Image)
	n.Network = strings.ToLower(strings.TrimSpace(r.Network))
	if n.Network == "" || n.Network == "nat" {
		// The engine default; "nat" is the paper's name for bridge
		// networking (§V.B).
		n.Network = "bridge"
	}
	n.UTS = strings.ToLower(strings.TrimSpace(r.UTS))
	n.IPC = strings.ToLower(strings.TrimSpace(r.IPC))
	n.Env = normalizeList(r.Env)
	sort.Strings(n.Env)
	n.Volumes = normalizeList(r.Volumes)
	sort.Strings(n.Volumes)
	n.Entrypoint = normalizeList(r.Entrypoint)
	n.Cmd = normalizeList(r.Cmd)
	if len(r.Labels) == 0 {
		n.Labels = nil
	} else {
		n.Labels = make(map[string]string, len(r.Labels))
		for k, v := range r.Labels {
			n.Labels[strings.TrimSpace(k)] = v
		}
	}
	return n
}

func normalizeList(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := make([]string, 0, len(in))
	for _, s := range in {
		s = strings.TrimSpace(s)
		if s != "" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Validate reports whether the runtime is well-formed.
func (r Runtime) Validate() error {
	n := r.Normalize()
	if n.Image == "" {
		return fmt.Errorf("config: image is required")
	}
	if !validImageRef(n.Image) {
		return fmt.Errorf("config: invalid image reference %q", n.Image)
	}
	switch {
	case n.Network == "none", n.Network == "bridge", n.Network == "host",
		n.Network == "overlay", n.Network == "routing",
		strings.HasPrefix(n.Network, "container:"):
	default:
		return fmt.Errorf("config: unknown network mode %q", n.Network)
	}
	if n.UTS != "" && n.UTS != "host" {
		return fmt.Errorf("config: unknown UTS mode %q", n.UTS)
	}
	if n.IPC != "" && n.IPC != "host" && !strings.HasPrefix(n.IPC, "container:") {
		return fmt.Errorf("config: unknown IPC mode %q", n.IPC)
	}
	if n.MemoryMB < 0 {
		return fmt.Errorf("config: negative memory limit %d", n.MemoryMB)
	}
	if n.CPUShares < 0 {
		return fmt.Errorf("config: negative cpu shares %d", n.CPUShares)
	}
	for _, e := range n.Env {
		if !strings.Contains(e, "=") {
			return fmt.Errorf("config: malformed env entry %q (want KEY=VALUE)", e)
		}
	}
	for _, v := range n.Volumes {
		if !strings.Contains(v, ":") {
			return fmt.Errorf("config: malformed volume spec %q (want host:container)", v)
		}
	}
	// Every field must be valid UTF-8: the canonical key and the JSON
	// configuration-file form both require it, and rejecting here keeps
	// keys stable under serialisation round trips.
	fields := append(append(append([]string{}, n.Env...), n.Volumes...), n.Entrypoint...)
	fields = append(fields, n.Cmd...)
	for k, v := range n.Labels {
		fields = append(fields, k, v)
	}
	for _, s := range fields {
		if !utf8.ValidString(s) {
			return fmt.Errorf("config: field %q is not valid UTF-8", s)
		}
	}
	return nil
}

// validImageRef enforces the image-reference character set (the
// conservative subset Docker allows: alphanumerics plus ._:/@-).
func validImageRef(ref string) bool {
	for _, c := range ref {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == ':', c == '/', c == '@', c == '-':
		default:
			return false
		}
	}
	return true
}

// Key derives the canonical pool key. Two runtimes have the same Key
// iff their normalised forms are identical in every identity-relevant
// parameter.
func (r Runtime) Key() Key {
	n := r.Normalize()
	var b strings.Builder
	writeField := func(tag, val string) {
		b.WriteString(tag)
		b.WriteByte('=')
		b.WriteString(val)
		b.WriteByte(';')
	}
	writeField("img", n.Image)
	writeField("net", n.Network)
	writeField("uts", n.UTS)
	writeField("ipc", n.IPC)
	writeField("env", strings.Join(n.Env, ","))
	writeField("vol", strings.Join(n.Volumes, ","))
	writeField("mem", strconv.Itoa(n.MemoryMB))
	writeField("cpu", strconv.Itoa(n.CPUShares))
	writeField("ep", strings.Join(n.Entrypoint, " "))
	writeField("cmd", strings.Join(n.Cmd, " "))
	if len(n.Labels) > 0 {
		keys := make([]string, 0, len(n.Labels))
		for k := range n.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([]string, len(keys))
		for i, k := range keys {
			pairs[i] = k + "=" + n.Labels[k]
		}
		writeField("lbl", strings.Join(pairs, ","))
	}
	return Key(b.String())
}

// Relaxed derives the reduced key for fuzzy matching: only image and
// namespace-level configuration participate. A container found under a
// matching RelaxedKey can serve the request after applying the
// remaining parameters (env, cmd) at exec time.
func (r Runtime) Relaxed() RelaxedKey {
	n := r.Normalize()
	return RelaxedKey(fmt.Sprintf("img=%s;net=%s;uts=%s;ipc=%s;mem=%d;cpu=%d",
		n.Image, n.Network, n.UTS, n.IPC, n.MemoryMB, n.CPUShares))
}

// Delta describes what must be applied at exec time to reuse a
// container that matched only on the relaxed key.
type Delta struct {
	Env        []string
	Cmd        []string
	Entrypoint []string
	Volumes    []string
	Labels     map[string]string
}

// Empty reports whether no adjustments are needed (i.e. the full keys
// already match).
func (d Delta) Empty() bool {
	return len(d.Env) == 0 && len(d.Cmd) == 0 && len(d.Entrypoint) == 0 &&
		len(d.Volumes) == 0 && len(d.Labels) == 0
}

// DeltaFrom computes the exec-time adjustments needed to run r's
// workload in a container created from base. It assumes the relaxed
// keys match; the caller must check that first.
func (r Runtime) DeltaFrom(base Runtime) Delta {
	n := r.Normalize()
	b := base.Normalize()
	var d Delta
	if !slices.Equal(n.Env, b.Env) {
		d.Env = n.Env
	}
	if !slices.Equal(n.Cmd, b.Cmd) {
		d.Cmd = n.Cmd
	}
	if !slices.Equal(n.Entrypoint, b.Entrypoint) {
		d.Entrypoint = n.Entrypoint
	}
	if !slices.Equal(n.Volumes, b.Volumes) {
		d.Volumes = n.Volumes
	}
	if !equalLabels(n.Labels, b.Labels) {
		d.Labels = n.Labels
	}
	return d
}

func equalLabels(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// ParseCommand parses a docker-run-style argument vector into a
// Runtime. Supported flags mirror the parameters the paper lists:
//
//	--net/--network MODE, --uts MODE, --ipc MODE,
//	-e/--env KEY=VALUE (repeatable), -v/--volume HOST:CTR (repeatable),
//	-m/--memory SIZE (e.g. 512m, 2g), --cpu-shares N,
//	--entrypoint CMD, -l/--label K=V (repeatable)
//
// The first non-flag argument is the image; everything after it is the
// command.
func ParseCommand(args []string) (Runtime, error) {
	var r Runtime
	i := 0
	needValue := func(flag string) (string, error) {
		if i+1 >= len(args) {
			return "", fmt.Errorf("config: flag %s requires a value", flag)
		}
		i++
		return args[i], nil
	}
	for ; i < len(args); i++ {
		arg := args[i]
		if !strings.HasPrefix(arg, "-") {
			break
		}
		flag, inline, hasInline := strings.Cut(arg, "=")
		value := func() (string, error) {
			if hasInline {
				return inline, nil
			}
			return needValue(flag)
		}
		var v string
		var err error
		switch flag {
		case "--net", "--network":
			if v, err = value(); err == nil {
				r.Network = v
			}
		case "--uts":
			if v, err = value(); err == nil {
				r.UTS = v
			}
		case "--ipc":
			if v, err = value(); err == nil {
				r.IPC = v
			}
		case "-e", "--env":
			if v, err = value(); err == nil {
				r.Env = append(r.Env, v)
			}
		case "-v", "--volume":
			if v, err = value(); err == nil {
				r.Volumes = append(r.Volumes, v)
			}
		case "-l", "--label":
			if v, err = value(); err == nil {
				if r.Labels == nil {
					r.Labels = map[string]string{}
				}
				k, lv, _ := strings.Cut(v, "=")
				r.Labels[k] = lv
			}
		case "-m", "--memory":
			if v, err = value(); err == nil {
				var mb int
				mb, err = parseMemoryMB(v)
				r.MemoryMB = mb
			}
		case "--cpu-shares":
			if v, err = value(); err == nil {
				var n int
				n, err = strconv.Atoi(v)
				if err != nil {
					err = fmt.Errorf("config: bad --cpu-shares %q: %v", v, err)
				}
				r.CPUShares = n
			}
		case "--entrypoint":
			if v, err = value(); err == nil {
				r.Entrypoint = strings.Fields(v)
			}
		case "-d", "--detach", "--rm", "-it", "-i", "-t":
			// Accepted and ignored: these do not affect runtime identity.
		default:
			return Runtime{}, fmt.Errorf("config: unknown flag %q", flag)
		}
		if err != nil {
			return Runtime{}, err
		}
	}
	if i >= len(args) {
		return Runtime{}, fmt.Errorf("config: no image in command")
	}
	r.Image = args[i]
	if i+1 < len(args) {
		r.Cmd = append([]string(nil), args[i+1:]...)
	}
	if err := r.Validate(); err != nil {
		return Runtime{}, err
	}
	return r.Normalize(), nil
}

func parseMemoryMB(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "g"):
		mult = 1024
		s = strings.TrimSuffix(s, "g")
	case strings.HasSuffix(s, "m"):
		s = strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "k"):
		// Kilobytes round down to whole MB below.
		n, err := strconv.Atoi(strings.TrimSuffix(s, "k"))
		if err != nil {
			return 0, fmt.Errorf("config: bad memory size %q", s)
		}
		return n / 1024, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("config: bad memory size %q", s)
	}
	return n * mult, nil
}

// ParseFile parses a JSON configuration file (the paper's "user input
// or configuration file") into a Runtime.
func ParseFile(data []byte) (Runtime, error) {
	var r Runtime
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Runtime{}, fmt.Errorf("config: parsing file: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Runtime{}, err
	}
	return r.Normalize(), nil
}
