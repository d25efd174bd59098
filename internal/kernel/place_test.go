package kernel

import (
	"slices"
	"testing"
)

// FuzzPlace checks Place's contract on any input: it picks only nodes
// among its views — a node down, on the ring but not among the views,
// never — each at most once, warm ones (most spare first) before the
// hash-ordered rest, and no more than limit; and the choice is a pure
// function of its inputs: the views are left as they were, and the same
// nodes in any order give the same chain. A hash loop that appends every
// ring node, down or not, fails it.
func FuzzPlace(f *testing.F) {
	f.Add("a,b,c", "d", []byte{0, 2, 1}, "fn", uint64(0), uint8(3), false)
	f.Add("n1,n2", "", []byte{0, 0}, "echo", uint64(7), uint8(8), true)
	f.Add("x", "y,z", []byte{5}, "", uint64(1), uint8(1), false)
	f.Add("a,b,c", "d,e", []byte{}, "fn", uint64(0), uint8(8), false)
	f.Fuzz(func(t *testing.T, up, down string, warm []byte, fn string, tick uint64, limit uint8, rr bool) {
		names := members(up)
		var views []View
		for i, n := range names {
			w := 0
			if i < len(warm) {
				w = int(warm[i] % 4)
			}
			views = append(views, View{Name: n, Warm: w})
		}
		ring := NewRing(0)
		for _, n := range names {
			ring.Add(n)
		}
		for _, n := range members(down) {
			ring.Add(n) // a member of the ring that is down: not among the views
		}
		policy := PolicyWarmAware
		if rr {
			policy = PolicyRoundRobin
		}
		given := slices.Clone(views)
		got := Place(policy, fn, ring, views, tick, int(limit))
		if !slices.Equal(views, given) {
			t.Fatalf("Place reordered its views: %v, was %v", views, given)
		}
		if len(got) > int(limit) || len(got) > len(views) {
			t.Fatalf("Place chose %d nodes of %d, limit %d: %v", len(got), len(views), limit, got)
		}
		seen := map[string]bool{}
		lastWarm := -1
		for i, c := range got {
			v := slices.IndexFunc(views, func(v View) bool { return v.Name == c.Name })
			if v < 0 || seen[c.Name] {
				t.Fatalf("choice %d %q is down or chosen twice: %v over %v", i, c.Name, got, views)
			}
			seen[c.Name] = true
			switch {
			case rr && c.Kind != "rr", !rr && c.Kind != "warm" && c.Kind != "hash":
				t.Fatalf("choice %d is %q under %s", i, c.Kind, policy)
			case c.Kind == "warm" && (views[v].Warm == 0 || lastWarm != i-1):
				t.Fatalf("warm choice %d (%+v) follows a hash choice or has nothing to spare: %v", i, views[v], got)
			case c.Kind == "warm":
				lastWarm = i
			}
		}
		reversed := slices.Clone(views)
		slices.Reverse(reversed)
		if again := Place(policy, fn, ring, reversed, tick, int(limit)); !slices.Equal(again, got) {
			t.Fatalf("the same views reversed chose %v, not %v", again, got)
		}
	})
}
