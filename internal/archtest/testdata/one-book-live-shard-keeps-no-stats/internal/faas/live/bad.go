package live

type shard struct {
	name  string
	idle  []*instance
	stats Stats
}
