package kernel

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// members turns a fuzz input into up to 12 distinct, non-empty member
// names.
func members(list string) []string {
	var out []string
	for _, m := range strings.Split(list, ",") {
		if m != "" && !slices.Contains(out, m) && len(out) < 12 {
			out = append(out, m)
		}
	}
	return out
}

// ringKeys are the keys a ring property is checked over: enough that a
// fair share is measured within a few percent.
func ringKeys(seed string) []string {
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s/fn-%d", seed, i)
	}
	return keys
}

// FuzzRing checks the ring's contract on any membership: Owner is
// Ordered's first node, Ordered lists every member once, a removed
// member is never chosen again, and adding a member moves only the keys
// the newcomer now owns — at most twice its fair share 1/N of them (the
// slack covers 64 virtual nodes' uneven arcs and the key sample). A
// Remove that drops a member's name but keeps its virtual nodes fails
// it (the removed member is still chosen).
func FuzzRing(f *testing.F) {
	for _, seed := range []struct{ list, add, keys string }{
		{"a,b,c", "d", "k"},
		{"127.0.0.1:8081,127.0.0.1:8082", "127.0.0.1:8083", "echo"},
		{"n1", "n2", ""},
		{"", "solo", "x"},
		{"a,b,c,d,e,f,g,h", "i", "fn"},
	} {
		f.Add(seed.list, seed.add, seed.keys)
	}
	f.Fuzz(func(t *testing.T, list, add, seed string) {
		ms := members(list)
		if add == "" || slices.Contains(ms, add) {
			return
		}
		r := NewRing(0)
		for _, m := range ms {
			r.Add(m)
		}
		keys := ringKeys(seed)
		before := make([]string, len(keys))
		for i, k := range keys {
			o := r.Ordered(k)
			if len(o) != len(ms) || !sameSet(o, ms) {
				t.Fatalf("Ordered(%q) = %v over members %v", k, o, ms)
			}
			if before[i] = r.Owner(k); len(o) > 0 && before[i] != o[0] || len(o) == 0 && before[i] != "" {
				t.Fatalf("Owner(%q) = %q, Ordered %v", k, before[i], o)
			}
		}

		r.Add(add)
		moved := 0
		for i, k := range keys {
			if now := r.Owner(k); now != before[i] {
				if now != add {
					t.Fatalf("adding %q moved %q from %q to %q", add, k, before[i], now)
				}
				moved++
			}
		}
		if n := len(ms) + 1; moved*n > 2*len(keys) {
			t.Fatalf("adding %q to %v moved %d of %d keys, over twice the fair share 1/%d", add, ms, moved, len(keys), n)
		}

		if !r.Remove(add) || r.Remove(add) {
			t.Fatalf("Remove(%q) twice did not report present, then absent", add)
		}
		for i, k := range keys {
			if o := r.Ordered(k); slices.Contains(o, add) || r.Owner(k) != before[i] {
				t.Fatalf("after removing %q, Ordered(%q) = %v (owner was %q)", add, k, o, before[i])
			}
		}
	})
}

// sameSet reports whether a holds each of b's elements exactly once.
func sameSet(a, b []string) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
