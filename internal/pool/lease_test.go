package pool

import (
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/workload"
)

// pyEnvSpec builds a python spec whose full key differs by Env but
// whose relaxed key matches every other pyEnvSpec.
func pyEnvSpec(t *testing.T, f *fixture, env string) *container.Spec {
	return f.spec(t, config.Runtime{Image: "python:3.8", Env: []string{env}})
}

func nodeSpec(t *testing.T, f *fixture) *container.Spec {
	return f.spec(t, config.Runtime{Image: "node:10"})
}

// TestLeasedContainerNeverServesFormerRelaxedKey pins the sharing ×
// relaxed-matching interaction: once a container has been leased to
// another function, a relaxed-key Acquire for its *former* key must not
// be handed the container — even while the lease wipe is still in
// flight. Run under -race in CI.
func TestLeasedContainerNeverServesFormerRelaxedKey(t *testing.T) {
	f := newFixture(t, Options{EnableRelaxed: true, EnableSharing: true})
	specA := pyEnvSpec(t, f, "A=1")

	c, reused := f.acquire(t, specA)
	if reused {
		t.Fatal("first acquire should cold-start")
	}
	f.execAndRelease(t, c, workload.QRApp(workload.Python))

	// Start the lease to a different runtime; do NOT drain the
	// scheduler yet — the wipe is still in flight.
	var leased bool
	f.pool.Lease(c, nodeSpec(t, f), func(err error) {
		if err != nil {
			t.Errorf("lease: %v", err)
		}
		leased = true
	})

	// A relaxed-key request for the container's former key arrives
	// mid-lease. It must miss and boot fresh.
	var got *container.Container
	var gotReused bool
	f.pool.Acquire(pyEnvSpec(t, f, "B=2"), func(c2 *container.Container, r bool, _ config.Delta, err error) {
		if err != nil {
			t.Errorf("acquire: %v", err)
		}
		got, gotReused = c2, r
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !leased {
		t.Fatal("lease never completed")
	}
	if got == c {
		t.Fatal("relaxed acquire was handed a container leased to another function")
	}
	if gotReused {
		t.Fatal("relaxed acquire should not have found a warm candidate")
	}

	// And after the lease completes, the container serves its NEW key.
	if c.Key() != nodeSpec(t, f).Key() {
		t.Fatalf("leased container key = %s, want the renter's", c.Key())
	}
}

func TestAcquireLeasesIdleContainerOfOtherKey(t *testing.T) {
	f := newFixture(t, Options{EnableSharing: true})
	py := pySpec(t, f)

	c1, _ := f.acquire(t, py)
	f.execAndRelease(t, c1, workload.QRApp(workload.Python))

	// Measure how long a lease-based acquire takes...
	start := f.sched.Now()
	c2, reused := f.acquire(t, nodeSpec(t, f))
	leaseCost := f.sched.Now() - start

	if reused {
		t.Fatal("a lease is not a warm reuse: the caller pays the repurpose delay")
	}
	if c2 != c1 {
		t.Fatal("expected the idle python container to be leased")
	}
	if got := f.pool.Stats().Leases; got != 1 {
		t.Fatalf("Leases = %d, want 1", got)
	}
	if eng := f.eng.Stats(); eng.Repurposed != 1 {
		t.Fatalf("engine Repurposed = %d, want 1", eng.Repurposed)
	}
	// The leased container must not remember the lender's warm apps.
	if f.warmFor(c2, workload.QRApp(workload.Python)) {
		t.Fatal("repurposed container kept the lender's warm state")
	}

	// ...and compare with a full cold boot of the same spec from the
	// same image-cache state: the lease must be strictly cheaper.
	f2 := newFixture(t, Options{})
	start2 := f2.sched.Now()
	f2.acquire(t, nodeSpec(t, f2))
	bootCost := f2.sched.Now() - start2
	if leaseCost >= bootCost {
		t.Fatalf("lease cost %v not below cold boot cost %v", leaseCost, bootCost)
	}
}

func TestAcquireDoesNotLeaseBusyOrSameKey(t *testing.T) {
	f := newFixture(t, Options{EnableSharing: true})
	py := pySpec(t, f)

	// Busy lender: no candidate, the renter cold-starts.
	c1, _ := f.acquire(t, py) // reserved, never released
	c2, reused := f.acquire(t, nodeSpec(t, f))
	if reused || c2 == c1 {
		t.Fatal("busy container must not be leased")
	}
	if got := f.pool.Stats().Leases; got != 0 {
		t.Fatalf("Leases = %d, want 0", got)
	}
}

func TestSharingDisabledNeverLeases(t *testing.T) {
	f := newFixture(t, Options{})
	py := pySpec(t, f)
	c1, _ := f.acquire(t, py)
	f.execAndRelease(t, c1, workload.QRApp(workload.Python))

	c2, reused := f.acquire(t, nodeSpec(t, f))
	if reused || c2 == c1 {
		t.Fatal("sharing disabled: idle container of another key must not be leased")
	}
	if got := f.pool.Stats().Leases; got != 0 {
		t.Fatalf("Leases = %d, want 0", got)
	}
}

// TestShareIdleGraceProtectsWorkingSet pins the lending gate: a
// container reused moments ago is part of its function's working set
// and must not be rented out, while the same container becomes fair
// game once it has sat idle past the grace.
func TestShareIdleGraceProtectsWorkingSet(t *testing.T) {
	grace := 30 * time.Second
	f := newFixture(t, Options{EnableSharing: true, ShareIdleGrace: grace})
	py := pySpec(t, f)

	c1, _ := f.acquire(t, py)
	f.execAndRelease(t, c1, workload.QRApp(workload.Python))

	// Immediately after release the container is too fresh to lend:
	// the other function pays a full cold start instead.
	c2, reused := f.acquire(t, nodeSpec(t, f))
	if reused || c2 == c1 {
		t.Fatal("container inside the idle grace must not be leased")
	}
	if got := f.pool.Stats().Leases; got != 0 {
		t.Fatalf("Leases = %d, want 0", got)
	}
	// c2 stays reserved so it cannot become a candidate itself.

	// Let the container age past the grace; now it is genuine surplus.
	f.sched.After(grace+time.Second, func() {})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	c3, reused := f.acquire(t, pyEnvSpec(t, f, "X=1"))
	if reused {
		t.Fatal("a lease is not a warm reuse")
	}
	if c3 != c1 {
		t.Fatal("container idle past the grace should have been leased")
	}
	if got := f.pool.Stats().Leases; got != 1 {
		t.Fatalf("Leases = %d, want 1", got)
	}
}

func TestLeaseRepaysAppInit(t *testing.T) {
	// A rented zygote skips engine/network/watchdog setup but must pay
	// app init again: the renter's first exec is a cold start, its
	// second a warm start.
	f := newFixture(t, Options{EnableSharing: true})
	pyApp := workload.QRApp(workload.Python)

	c1, _ := f.acquire(t, pySpec(t, f))
	f.execAndRelease(t, c1, pyApp)

	c2, _ := f.acquire(t, nodeSpec(t, f))
	if c2 != c1 {
		t.Fatal("expected a lease")
	}
	nodeApp := workload.QRApp(workload.Node)
	var first, second time.Duration
	f.eng.Exec(c2, nodeApp, func(d time.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		first = d
		f.pool.Release(c2, nil)
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	c3, reused := f.acquire(t, nodeSpec(t, f))
	if !reused || c3 != c2 {
		t.Fatal("renter should now reuse its rented container warm")
	}
	f.eng.Exec(c3, nodeApp, func(d time.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		second = d
		f.pool.Release(c3, nil)
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Fatalf("second exec (%v) should be warm and cheaper than the first (%v)", second, first)
	}
}

// TestShareCandidateTieFollowsCreationOrder pins the lender tie-break:
// two keys whose least-recently-used containers were last used at the
// same virtual instant lend in creation order, not in the order the
// pool first saw their keys.
func TestShareCandidateTieFollowsCreationOrder(t *testing.T) {
	f := newFixture(t, Options{EnableSharing: true})
	app := workload.QRApp(workload.Python)
	first, second := pyEnvSpec(t, f, "A=1"), pyEnvSpec(t, f, "B=2")
	f.pool.Occupancy(second) // the pool sees second's key first

	older, _ := f.acquire(t, first)
	younger, _ := f.acquire(t, second)
	for _, c := range []*container.Container{older, younger} {
		f.eng.Exec(c, app, func(_ time.Duration, err error) {
			if err != nil {
				t.Errorf("exec: %v", err)
			}
		})
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*container.Container{older, younger} {
		f.pool.Release(c, nil)
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if older.LastUsedAt != younger.LastUsedAt || older.CreatedAt >= younger.CreatedAt {
		t.Fatalf("not a tie: %s created %v used %v, %s created %v used %v",
			older.ID, older.CreatedAt, older.LastUsedAt, younger.ID, younger.CreatedAt, younger.LastUsedAt)
	}

	if got, _ := f.acquire(t, nodeSpec(t, f)); got != older {
		t.Fatalf("leased %s, want the older-created %s", got.ID, older.ID)
	}
}
