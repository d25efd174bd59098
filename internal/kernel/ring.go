package kernel

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node multiplier: enough points that a
// three-node ring splits keys within a few percent of evenly, small
// enough that membership changes rebuild in microseconds.
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes. A key hashes to
// a point on the ring and is owned by the first virtual node at or
// after it; removing a node moves only that node's keys. Not safe for
// concurrent use: the router guards it with its membership lock, and
// the simulated cluster keeps it on the simulation goroutine.
type Ring struct {
	vnodes int
	nodes  map[string]bool
	// points are the virtual nodes sorted by hash; each carries the
	// physical node it stands for.
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates an empty ring with the given virtual-node count per
// physical node (<= 0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// hashKey is FNV-1a with a murmur-style finalizer: raw FNV leaves
// vnode labels that differ only in a suffix digit clustered, which
// skews ring ownership badly; the avalanche spreads them.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a node's virtual nodes. Adding a present node is a
// no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hashKey(node + "#" + strconv.Itoa(i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node and its virtual nodes, reporting whether it
// was present.
func (r *Ring) Remove(node string) bool {
	if !r.nodes[node] {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Len reports the physical node count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the physical nodes, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	o := r.Ordered(key)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// Ordered returns every distinct node in ring order starting at key's
// owner — the owner first, then the successors a saturated request
// spills to. Walking from the key's ring position keeps the spill
// target stable per key, so retries concentrate warmth instead of
// scattering it.
func (r *Ring) Ordered(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.nodes))
	out := make([]string, 0, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
