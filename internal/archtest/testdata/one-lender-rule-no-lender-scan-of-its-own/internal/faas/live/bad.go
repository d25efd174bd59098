package live

func (s *shard) lendableLocked() *instance { return nil }
