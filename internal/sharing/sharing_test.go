package sharing

import (
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
