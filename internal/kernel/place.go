package kernel

import (
	"cmp"
	"slices"
	"strings"
)

// Policy selects how requests are placed across nodes.
type Policy string

// The placement policies.
const (
	// PolicyWarmAware is the default: warm-affinity first, then the
	// consistent-hash owner, spilling to ring successors on
	// saturation.
	PolicyWarmAware Policy = "warm"
	// PolicyRoundRobin ignores warmth and hashing — the baseline the
	// cluster bench compares against.
	PolicyRoundRobin Policy = "rr"
)

// View is a node placement may choose: its name on the ring and how
// many warm instances of the function it has to spare.
type View struct {
	Name string
	Warm int
}

// Choice is one node of a fallback chain. Kind is the placement
// outcome if it serves as the first attempt: warm, hash or rr.
type Choice struct {
	Name string
	Kind string
}

// Place orders views into fn's fallback chain, capped at limit. Under
// PolicyRoundRobin that is every node in name order, rotated by tick.
// Otherwise it is warm affinity first (most spare warm instances wins,
// name breaks ties), then the other nodes in ring order from fn's
// owner. It is the one placement rule: the router calls it over its
// healthy, non-draining members and the simulated cluster over its
// live nodes.
func Place(policy Policy, fn string, ring *Ring, views []View, tick uint64, limit int) []Choice {
	if len(views) == 0 {
		return nil
	}
	nodes := slices.Clone(views)
	out := make([]Choice, 0, len(nodes))
	if policy == PolicyRoundRobin {
		slices.SortFunc(nodes, func(a, b View) int { return strings.Compare(a.Name, b.Name) })
		start := int(tick % uint64(len(nodes)))
		for i := range nodes {
			out = append(out, Choice{nodes[(start+i)%len(nodes)].Name, "rr"})
		}
	} else {
		slices.SortFunc(nodes, func(a, b View) int {
			if c := cmp.Compare(b.Warm, a.Warm); c != 0 {
				return c
			}
			return strings.Compare(a.Name, b.Name)
		})
		cold := make(map[string]bool, len(nodes))
		for _, v := range nodes {
			if v.Warm > 0 {
				out = append(out, Choice{v.Name, "warm"})
			} else {
				cold[v.Name] = true
			}
		}
		for _, name := range ring.Ordered(fn) {
			if cold[name] {
				out = append(out, Choice{name, "hash"})
			}
		}
	}
	return out[:min(len(out), limit)]
}
