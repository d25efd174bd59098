package network

import (
	"testing"
	"testing/quick"

	"hotc/internal/costmodel"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		mode Mode
		peer string
		ok   bool
	}{
		{"", Bridge, "", true},
		{"bridge", Bridge, "", true},
		{"NAT", Bridge, "", true},
		{"none", None, "", true},
		{"host", Host, "", true},
		{"overlay", Overlay, "", true},
		{"routing", Routing, "", true},
		{"container:proxy", Container, "proxy", true},
		{"container", Container, "", true},
		{"container:", Container, "", false},
		{"warp", 0, "", false},
	}
	for _, tc := range cases {
		mode, peer, err := Parse(tc.in)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("Parse(%q): expected error", tc.in)
			}
			continue
		}
		if mode != tc.mode || peer != tc.peer {
			t.Errorf("Parse(%q) = %v/%q, want %v/%q", tc.in, mode, peer, tc.mode, tc.peer)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, m := range Modes() {
		if m == Container {
			continue // "container" needs a peer for full round trip
		}
		back, _, err := Parse(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v -> %q -> %v (%v)", m, m.String(), back, err)
		}
	}
}

// Fig. 4(c) single host: bridge and host mode boot close to None,
// container mode about half of it.
func TestFig4cSingleHostShape(t *testing.T) {
	cm := costmodel.New(costmodel.Server())
	none := None.BootCost(cm)
	bridge := Bridge.BootCost(cm)
	host := Host.BootCost(cm)
	ctr := Container.BootCost(cm)

	within := func(a, b, tol float64) bool {
		r := float64(a) / float64(b)
		return r > 1-tol && r < 1+tol
	}
	if !within(float64(bridge), float64(none), 0.15) {
		t.Fatalf("bridge boot %v should be close to none %v", bridge, none)
	}
	if !within(float64(host), float64(none), 0.15) {
		t.Fatalf("host boot %v should be close to none %v", host, none)
	}
	ratio := float64(ctr) / float64(none)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("container boot should be ~half of none: %v vs %v (ratio %.2f)", ctr, none, ratio)
	}
}

// Fig. 4(c) multi host: overlay up to 23x host-mode startup.
func TestFig4cMultiHostShape(t *testing.T) {
	cm := costmodel.New(costmodel.Server())
	host := Host.BootCost(cm)
	overlay := Overlay.BootCost(cm)
	routing := Routing.BootCost(cm)
	r := float64(overlay) / float64(host)
	if r < 18 || r > 28 {
		t.Fatalf("overlay/host boot ratio = %.1f, want ~23", r)
	}
	if routing >= overlay {
		t.Fatal("routing should be cheaper than overlay")
	}
	if routing <= host {
		t.Fatal("routing must cost far more than host mode")
	}
}

func TestTeardownCosts(t *testing.T) {
	cm := costmodel.New(costmodel.Server())
	if Overlay.TeardownCost(cm) <= Bridge.TeardownCost(cm) {
		t.Fatal("overlay teardown should exceed bridge teardown")
	}
	if None.TeardownCost(cm) != 0 || Host.TeardownCost(cm) != 0 {
		t.Fatal("none/host teardown should be free")
	}
}

func TestEdgeScalesNetwork(t *testing.T) {
	server := costmodel.New(costmodel.Server())
	pi := costmodel.New(costmodel.EdgePi())
	if Overlay.SetupCost(pi) <= Overlay.SetupCost(server) {
		t.Fatal("overlay setup should be slower on the Pi")
	}
}

func TestInvalidModePanics(t *testing.T) {
	cm := costmodel.New(costmodel.Server())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid mode did not panic")
		}
	}()
	Mode(99).SetupCost(cm)
}

// Property: every valid mode has non-negative setup/teardown and
// strictly positive boot cost on any sane profile.
func TestPropertyCostsNonNegative(t *testing.T) {
	f := func(netScale, engineScale uint8) bool {
		p := costmodel.Server()
		p.NetScale = 0.1 + float64(netScale%40)
		p.EngineScale = 0.1 + float64(engineScale%40)
		cm := costmodel.New(p)
		for _, m := range Modes() {
			if m.SetupCost(cm) < 0 || m.TeardownCost(cm) < 0 || m.BootCost(cm) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
