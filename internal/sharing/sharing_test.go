package sharing

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestClassifierNeutralUntilMinTicks(t *testing.T) {
	c := NewClassifier(ClassifierConfig{})
	if got := c.Observe(10, 0, 10); got != RoleNeutral {
		t.Fatalf("tick 1: got %v, want neutral", got)
	}
	if got := c.Observe(10, 0, 10); got != RoleNeutral {
		t.Fatalf("tick 2: got %v, want neutral", got)
	}
	if got := c.Observe(10, 0, 10); got != RoleLender {
		t.Fatalf("tick 3: got %v, want lender", got)
	}
}

func TestClassifierOverForecastBecomesLender(t *testing.T) {
	c := NewClassifier(ClassifierConfig{})
	for i := 0; i < 6; i++ {
		c.Observe(8, 2, 0)
	}
	if c.Role() != RoleLender {
		t.Fatalf("persistently over-forecasted: role %v, want lender (errEWMA %.2f)", c.Role(), c.ForecastError())
	}
	if c.ForecastError() <= 0 {
		t.Fatalf("forecast error %.2f, want positive", c.ForecastError())
	}
}

func TestClassifierUnderForecastBecomesRenter(t *testing.T) {
	c := NewClassifier(ClassifierConfig{})
	for i := 0; i < 6; i++ {
		c.Observe(1, 5, 0)
	}
	if c.Role() != RoleRenter {
		t.Fatalf("persistently under-forecasted: role %v, want renter (errEWMA %.2f)", c.Role(), c.ForecastError())
	}
}

func TestClassifierIdleSurplusBecomesLender(t *testing.T) {
	// Forecast tracks demand exactly (no forecast error), but headroom
	// keeps a persistent idle surplus — still a lender.
	c := NewClassifier(ClassifierConfig{})
	for i := 0; i < 6; i++ {
		c.Observe(2, 2, 5)
	}
	if c.Role() != RoleLender {
		t.Fatalf("persistent idle surplus: role %v, want lender", c.Role())
	}
}

func TestClassifierAccurateForecastStaysNeutral(t *testing.T) {
	c := NewClassifier(ClassifierConfig{})
	for i := 0; i < 10; i++ {
		c.Observe(3, 3, 2) // surplus −1: below the lend threshold
	}
	if c.Role() != RoleNeutral {
		t.Fatalf("accurate forecast: role %v, want neutral", c.Role())
	}
}

func TestClassifierRecoversFromRole(t *testing.T) {
	c := NewClassifier(ClassifierConfig{})
	for i := 0; i < 6; i++ {
		c.Observe(8, 2, 0)
	}
	if c.Role() != RoleLender {
		t.Fatalf("setup: role %v, want lender", c.Role())
	}
	// Demand catches up with the forecast: the role decays back.
	for i := 0; i < 10; i++ {
		c.Observe(4, 4, 0)
	}
	if c.Role() != RoleNeutral {
		t.Fatalf("after demand catch-up: role %v, want neutral (errEWMA %.2f)", c.Role(), c.ForecastError())
	}
}

func TestZeroValueClassifierUsable(t *testing.T) {
	var c Classifier
	for i := 0; i < 6; i++ {
		c.Observe(9, 1, 0)
	}
	if c.Role() != RoleLender {
		t.Fatalf("zero-value classifier: role %v, want lender", c.Role())
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PolicyMode
		ok   bool
	}{
		{"", ModeSameImage, true},
		{"same-image", ModeSameImage, true},
		{"any", ModeAny, true},
		{"yes-please", ModeSameImage, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseMode(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPolicyCompatible(t *testing.T) {
	same := Policy{Mode: ModeSameImage}
	any := Policy{Mode: ModeAny}
	py := func(mem int, share bool) Candidate {
		return Candidate{Image: "python:3.8", MemoryMB: mem, Shareable: share}
	}
	node := Candidate{Image: "node:10", Shareable: true}

	for _, tc := range []struct {
		name           string
		p              Policy
		renter, lender Candidate
		ok             bool
		reason         string
	}{
		{"same image", same, py(0, true), py(0, true), true, ""},
		{"image mismatch", same, py(0, true), node, false, DenyImage},
		{"any bridges images", any, py(0, true), node, true, ""},
		{"empty images match", same, Candidate{Shareable: true}, Candidate{Shareable: true}, true, ""},
		{"renter opted out", same, py(0, false), py(0, true), false, DenyOptOut},
		{"lender opted out", same, py(0, true), py(0, false), false, DenyOptOut},
		{"renter fits lender memory", same, py(256, true), py(512, true), true, ""},
		{"renter exceeds lender memory", same, py(1024, true), py(512, true), false, DenyMemory},
		{"unsized renter on sized lender", same, py(0, true), py(512, true), false, DenyMemory},
		{"unconstrained lender hosts anyone", same, py(4096, true), py(0, true), true, ""},
	} {
		ok, reason := tc.p.Compatible(tc.renter, tc.lender)
		if ok != tc.ok || reason != tc.reason {
			t.Errorf("%s: Compatible = (%v, %q), want (%v, %q)", tc.name, ok, reason, tc.ok, tc.reason)
		}
	}
}

func TestPick(t *testing.T) {
	const grace = time.Second
	py := Candidate{Image: "python:3.8", Shareable: true}
	node := Candidate{Image: "node:10", Shareable: true}
	offer := func(role Role, idle int, forecast float64, idleFor time.Duration) Offer {
		return Offer{Role: role, Owner: py, Idle: idle, Forecast: forecast, IdleFor: idleFor}
	}
	nodeOffer := offer(RoleNeutral, 3, 0, time.Hour)
	nodeOffer.Owner = node

	for _, tc := range []struct {
		name   string
		renter Candidate
		offers []Offer
		i      int
		denied bool
	}{
		{"nothing offered", py, nil, -1, false},
		{"longest idle wins", py, []Offer{offer(RoleNeutral, 1, 0, 2*time.Second), offer(RoleNeutral, 1, 0, 5*time.Second)}, 1, false},
		{"lender beats older neutral", py, []Offer{offer(RoleNeutral, 3, 0, time.Hour), offer(RoleLender, 1, 0, 2*time.Second)}, 1, false},
		{"neutral when no lender can", py, []Offer{offer(RoleLender, 0, 0, 0), offer(RoleNeutral, 1, 0, 2*time.Second)}, 1, false},
		{"renter never lends", py, []Offer{offer(RoleRenter, 5, 0, time.Hour)}, -1, false},
		{"neutral keeps ceil forecast", py, []Offer{offer(RoleNeutral, 2, 1.2, time.Hour)}, -1, false},
		{"neutral lends above ceil forecast", py, []Offer{offer(RoleNeutral, 3, 1.2, time.Hour)}, 0, false},
		{"lender reserves nothing", py, []Offer{offer(RoleLender, 1, 4, time.Hour)}, 0, false},
		{"grace holds", py, []Offer{offer(RoleLender, 1, 0, grace-time.Nanosecond)}, -1, false},
		{"grace reached", py, []Offer{offer(RoleLender, 1, 0, grace)}, 0, false},
		{"policy refusal alone", py, []Offer{nodeOffer}, -1, true},
		{"refusal beside a pick", py, []Offer{nodeOffer, offer(RoleNeutral, 1, 0, 2*time.Second)}, 1, false},
		{"refusal beside nothing idle", py, []Offer{nodeOffer, offer(RoleNeutral, 0, 0, 0)}, -1, true},
		{"renter opted out", Candidate{Image: "python:3.8"}, nil, -1, true},
		{"tie to the earlier offer", py, []Offer{offer(RoleNeutral, 1, 0, 3*time.Second), offer(RoleNeutral, 2, 0, 3*time.Second)}, 0, false},
		{"tie among lenders", py, []Offer{offer(RoleNeutral, 1, 0, time.Hour), offer(RoleLender, 1, 0, 3*time.Second), offer(RoleLender, 1, 0, 3*time.Second)}, 1, false},
	} {
		i, denied := Pick(Policy{}, tc.renter, tc.offers, grace)
		if i != tc.i || denied != tc.denied {
			t.Errorf("%s: Pick = (%d, %v), want (%d, %v)", tc.name, i, denied, tc.i, tc.denied)
		}
	}
}

// Owners of the renter's own runtime key lend first, past any role and
// forecast reserve but never inside the grace; another key's owners
// keep the old order behind them, and a renter of no key matches no one.
func TestPickSameKeyFirst(t *testing.T) {
	const grace = time.Second
	py := Candidate{Image: "python:3.8", MemoryMB: 128, Key: "py", Shareable: true}
	other := Candidate{Image: "python:3.8", MemoryMB: 256, Key: "py256", Shareable: true}
	offer := func(owner Candidate, role Role, idle int, forecast float64, idleFor time.Duration) Offer {
		return Offer{Role: role, Owner: owner, Idle: idle, Forecast: forecast, IdleFor: idleFor}
	}
	optedOut := py
	optedOut.Shareable = false
	keyless := py
	keyless.Key = ""

	for _, tc := range []struct {
		name   string
		renter Candidate
		offers []Offer
		i      int
		denied bool
	}{
		{"same key past the reserve", py, []Offer{offer(py, RoleNeutral, 1, 3, time.Hour)}, 0, false},
		{"same-key renter lends to its key", py, []Offer{offer(py, RoleRenter, 1, 0, time.Hour)}, 0, false},
		{"same key beats an older lender", py, []Offer{offer(other, RoleLender, 1, 0, 2*time.Hour), offer(py, RoleNeutral, 1, 1, time.Hour)}, 1, false},
		{"same key inside the grace", py, []Offer{offer(py, RoleNeutral, 1, 0, grace-time.Nanosecond)}, -1, false},
		{"same key nothing idle, then another key", py, []Offer{offer(py, RoleLender, 0, 0, 0), offer(other, RoleNeutral, 1, 0, grace)}, 1, false},
		{"longest-idle same key wins", py, []Offer{offer(py, RoleNeutral, 1, 0, 2*grace), offer(py, RoleLender, 1, 0, 3*grace)}, 1, false},
		{"same-key tie to the earlier offer", py, []Offer{offer(py, RoleRenter, 1, 0, 2*grace), offer(py, RoleLender, 1, 0, 2*grace)}, 0, false},
		{"same-key owner opted out", py, []Offer{offer(optedOut, RoleNeutral, 1, 0, time.Hour)}, -1, true},
		{"other key keeps the reserve", py, []Offer{offer(other, RoleNeutral, 1, 1, time.Hour)}, -1, false},
		{"no key matches no one", keyless, []Offer{offer(keyless, RoleNeutral, 1, 1, time.Hour)}, -1, false},
	} {
		i, denied := Pick(Policy{}, tc.renter, tc.offers, grace)
		if i != tc.i || denied != tc.denied {
			t.Errorf("%s: Pick = (%d, %v), want (%d, %v)", tc.name, i, denied, tc.i, tc.denied)
		}
	}
}

// FuzzPick checks the lender rule's contract on any input: Pick returns
// -1 or an offer that Lends something; when an offer of the renter's
// own runtime key may lend, an offer of that key is chosen; a
// renter-role owner of another key never lends; and a renter of no key
// — the simulator's — or of a key no owner shares gets exactly the
// choice, refusal included, of the rule before the same-key rung,
// pickBeforeSameKey. Each offer takes four bytes: owner, idle count,
// forecast in halves, idle time in ms.
func FuzzPick(f *testing.F) {
	f.Add(byte(0x05), false, uint8(20), []byte{0x05, 1, 2, 100, 0x06, 2, 0, 200})
	f.Add(byte(0x05), false, uint8(20), []byte{0x0a, 1, 2, 100, 0x05, 1, 4, 10})
	f.Add(byte(0x45), true, uint8(0), []byte{0x01, 3, 3, 50, 0x05, 1, 1, 50, 0x09, 2, 0, 50})
	f.Add(byte(0x80), false, uint8(5), []byte{0x00, 1, 0, 9, 0x24, 1, 0, 9})
	f.Add(byte(0x25), false, uint8(1), []byte{0x15, 4, 7, 255})
	f.Fuzz(func(t *testing.T, renterBits byte, anyImage bool, graceMs uint8, data []byte) {
		// candidate reads image, memory class and opt-out from b; its key
		// is the image and class, as the gateway's Register derives it.
		candidate := func(b byte) Candidate {
			c := Candidate{Image: [...]string{"", "python:3.8", "node:10"}[b%3], MemoryMB: [...]int{0, 128, 256}[b/3%3], Shareable: b&0x20 == 0}
			if c.Image != "" {
				c.Key = fmt.Sprintf("%s/%d", c.Image, c.MemoryMB)
			}
			return c
		}
		renter := candidate(renterBits)
		if renterBits&0x80 != 0 {
			renter.Key = ""
		}
		var offers []Offer
		for ; len(data) >= 4; data = data[4:] {
			offers = append(offers, Offer{Role: Role(data[0] >> 6 % 3), Owner: candidate(data[0]), Idle: int(data[1] % 5),
				Forecast: float64(data[2]%8) / 2, IdleFor: time.Duration(data[3]) * time.Millisecond})
		}
		p := Policy{}
		if anyImage {
			p.Mode = ModeAny
		}
		grace := time.Duration(graceMs) * time.Millisecond

		i, denied := Pick(p, renter, offers, grace)
		sameKey := func(o Offer) bool { return renter.Key != "" && o.Owner.Key == renter.Key }
		if i >= 0 {
			if ok, _ := offers[i].Lends(p, renter, grace); !ok || offers[i].Idle <= 0 || denied {
				t.Fatalf("Pick chose offer %d %+v for %+v, which lends nothing (denied %v)", i, offers[i], renter, denied)
			}
			if offers[i].Role == RoleRenter && !sameKey(offers[i]) {
				t.Fatalf("Pick chose offer %d %+v, a renter of another key than %+v", i, offers[i], renter)
			}
		}
		shared := false
		for j, o := range offers {
			shared = shared || sameKey(o)
			idle := renter.Shareable && o.Owner.Shareable && o.Idle > 0 && o.IdleFor >= grace
			if sameKey(o) && idle && (i < 0 || !sameKey(offers[i])) {
				t.Fatalf("offer %d %+v of the renter's key is idle past the grace, yet Pick chose %d", j, o, i)
			}
		}
		if !shared {
			if oi, od := pickBeforeSameKey(p, renter, offers, grace); oi != i || od != denied {
				t.Fatalf("Pick = (%d, %v), the rule before the same-key rung (%d, %v), for %+v over %+v", i, denied, oi, od, renter, offers)
			}
		}
	})
}

// pickBeforeSameKey is Pick as it was before the same-key rung, frozen
// here for FuzzPick: lenders first, then neutral owners above their
// ⌈forecast⌉ reserve, renters never.
func pickBeforeSameKey(p Policy, renter Candidate, offers []Offer, grace time.Duration) (int, bool) {
	if !renter.Shareable {
		return -1, true
	}
	denied := false
	for _, tier := range [...]Role{RoleLender, RoleNeutral} {
		best := -1
		for j, o := range offers {
			if o.Role != tier {
				continue
			}
			if compatible, _ := p.Compatible(renter, o.Owner); !compatible {
				denied = true
				continue
			}
			reserve := 0
			if o.Role != RoleLender {
				reserve = int(math.Ceil(o.Forecast))
			}
			if o.Idle > reserve && o.IdleFor >= grace && (best < 0 || o.IdleFor > offers[best].IdleFor) {
				best = j
			}
		}
		if best >= 0 {
			return best, false
		}
	}
	return -1, denied
}
