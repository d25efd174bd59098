// Package network models container network modes and their setup cost
// during container boot, reproducing the relationships the paper
// measures in Fig. 4(c):
//
//   - single host: bridge and host mode cost about the same as no
//     network at all, while container mode (joining an existing proxy
//     container's namespace) makes startup roughly half as expensive
//     because no new network namespace is booted;
//   - multi host: overlay and routing networks, which register with a
//     distributed store and program tunnels/routes, cost up to 23x the
//     host-mode startup.
package network

import (
	"fmt"
	"strings"
	"time"

	"hotc/internal/costmodel"
)

// Mode enumerates the network configurations from Fig. 4(c).
type Mode int

const (
	// None gives the container no network (loopback only).
	None Mode = iota
	// Bridge attaches a veth pair to the docker0-style bridge with NAT.
	// This is the default mode, and what the paper calls NAT in §V.B.
	Bridge
	// Host shares the host network namespace.
	Host
	// Container joins another container's network namespace (the
	// "proxy container" pattern; cheapest startup in Fig. 4(c)).
	Container
	// Overlay is a multi-host VXLAN overlay requiring registration and
	// tunnel initialisation (most expensive in Fig. 4(c)).
	Overlay
	// Routing is a multi-host routed network (BGP-style route
	// programming), slightly cheaper than overlay.
	Routing
)

// Modes lists every mode in display order.
func Modes() []Mode { return []Mode{None, Bridge, Host, Container, Overlay, Routing} }

// String returns the mode's canonical name.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Bridge:
		return "bridge"
	case Host:
		return "host"
	case Container:
		return "container"
	case Overlay:
		return "overlay"
	case Routing:
		return "routing"
	default:
		return fmt.Sprintf("network.Mode(%d)", int(m))
	}
}

// Parse maps a config network string to a Mode. "container:<peer>"
// returns the peer container name. "nat" is accepted as an alias for
// bridge (the paper's Fig. 9 setup). An empty string means bridge, the
// engine default.
func Parse(s string) (mode Mode, peer string, err error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch {
	case s == "" || s == "bridge" || s == "nat":
		return Bridge, "", nil
	case s == "none":
		return None, "", nil
	case s == "host":
		return Host, "", nil
	case s == "overlay":
		return Overlay, "", nil
	case s == "routing":
		return Routing, "", nil
	case strings.HasPrefix(s, "container:"):
		peer = strings.TrimPrefix(s, "container:")
		if peer == "" {
			return 0, "", fmt.Errorf("network: container mode requires a peer name")
		}
		return Container, peer, nil
	case s == "container":
		return Container, "", nil
	default:
		return 0, "", fmt.Errorf("network: unknown mode %q", s)
	}
}

// Reference setup extras on the server profile. These are chosen so
// the total boot time (engine setup + network setup) reproduces the
// Fig. 4(c) ratios; see SetupCost.
const (
	bridgeExtra  = 8 * time.Millisecond
	hostExtra    = 3 * time.Millisecond
	peerExtra    = 2 * time.Millisecond
	overlayExtra = 2490 * time.Millisecond
	routingExtra = 1920 * time.Millisecond
)

// EngineFactor is the multiplier applied to the engine-setup stage for
// this mode. Container mode skips booting a network namespace entirely
// (it joins the proxy's), which is why Fig. 4(c) shows its total boot
// at about half the no-network case.
func (m Mode) EngineFactor() float64 {
	if m == Container {
		return 0.5
	}
	return 1
}

// SetupCost is the network-specific portion of container boot for this
// mode on the given host model.
func (m Mode) SetupCost(cm *costmodel.Model) time.Duration {
	var base time.Duration
	switch m {
	case None:
		base = 0
	case Bridge:
		base = bridgeExtra
	case Host:
		base = hostExtra
	case Container:
		base = peerExtra
	case Overlay:
		base = overlayExtra
	case Routing:
		base = routingExtra
	default:
		panic(fmt.Sprintf("network: SetupCost for invalid mode %d", int(m)))
	}
	return cm.NetCost(base)
}

// BootCost is the combined engine + network stage for a container boot
// under this mode: the quantity Fig. 4(c) plots.
func (m Mode) BootCost(cm *costmodel.Model) time.Duration {
	engine := time.Duration(float64(cm.EngineSetupCost()) * m.EngineFactor())
	return engine + m.SetupCost(cm)
}

// TeardownCost is the network cleanup cost when the container stops.
// Multi-host networks must deregister; single-host modes are cheap.
func (m Mode) TeardownCost(cm *costmodel.Model) time.Duration {
	switch m {
	case Overlay:
		return cm.NetCost(120 * time.Millisecond)
	case Routing:
		return cm.NetCost(90 * time.Millisecond)
	case Bridge:
		return cm.NetCost(2 * time.Millisecond)
	default:
		return 0
	}
}
