package cluster

func (c *Cluster) lighter(a, b *Node, key Key) *Node {
	if a.inFlight[key] <= b.inFlight[key] {
		return a
	}
	return b
}
