package router

import (
	"fmt"
	"testing"

	"hotc/internal/kernel"
)

func TestRingOwnerStableAndComplete(t *testing.T) {
	r := kernel.NewRing(0)
	if r.Owner("k") != "" {
		t.Fatal("empty ring owns keys")
	}
	nodes := []string{"http://a", "http://b", "http://c"}
	for _, n := range nodes {
		r.Add(n)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("fn-%d", i)
		o1, o2 := r.Owner(key), r.Owner(key)
		if o1 == "" || o1 != o2 {
			t.Fatalf("unstable owner for %s: %s vs %s", key, o1, o2)
		}
	}
	// Ordered visits every node exactly once, owner first.
	ord := r.Ordered("some-key")
	if len(ord) != 3 || ord[0] != r.Owner("some-key") {
		t.Fatalf("Ordered = %v, owner %s", ord, r.Owner("some-key"))
	}
	seen := map[string]bool{}
	for _, n := range ord {
		if seen[n] {
			t.Fatalf("Ordered repeats %s", n)
		}
		seen[n] = true
	}
}

func TestRingBalance(t *testing.T) {
	r := kernel.NewRing(0)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("http://node-%d", i))
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("fn-%d", i))]++
	}
	for n, c := range counts {
		frac := float64(c) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("node %s owns %.0f%% of keys — ring badly unbalanced: %v", n, frac*100, counts)
		}
	}
}

// The consistent-hashing property: removing a node moves only the
// keys it owned; every other key keeps its owner.
func TestRingRemoveMovesOnlyDepartedKeys(t *testing.T) {
	r := kernel.NewRing(0)
	nodes := []string{"http://a", "http://b", "http://c"}
	for _, n := range nodes {
		r.Add(n)
	}
	before := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("fn-%d", i)
		before[k] = r.Owner(k)
	}
	if !r.Remove("http://b") {
		t.Fatal("Remove returned false for a member")
	}
	if r.Remove("http://b") {
		t.Fatal("Remove returned true for a non-member")
	}
	moved := 0
	for k, prev := range before {
		now := r.Owner(k)
		if prev == "http://b" {
			if now == "http://b" || now == "" {
				t.Fatalf("key %s still owned by removed node", k)
			}
			moved++
		} else if now != prev {
			t.Fatalf("key %s moved from %s to %s though its owner stayed", k, prev, now)
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned no keys — test vacuous")
	}
	// Re-adding restores the original ownership exactly.
	r.Add("http://b")
	for k, prev := range before {
		if got := r.Owner(k); got != prev {
			t.Fatalf("after re-add, key %s owned by %s, was %s", k, got, prev)
		}
	}
}
