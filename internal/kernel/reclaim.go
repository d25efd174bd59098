package kernel

import (
	"cmp"
	"slices"
	"time"
)

// Reclaim is the one rule for giving capacity back, the paper's §IV.B
// "the oldest live container is forcibly terminated": it returns the
// indexes of the n oldest of ages, oldest first, equal ages in input
// order. Every over-limit victim on both substrates is picked by it —
// the simulated pool's cap and memory-threshold evictions and the live
// gateway's memory budget — and each substrate feeds its entries in the
// tie order it needs.
func Reclaim(ages []time.Duration, n int) []int {
	n = min(n, len(ages))
	if n <= 0 {
		return nil
	}
	idx := make([]int, len(ages))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(ages[b], ages[a]) })
	return idx[:n:n]
}
