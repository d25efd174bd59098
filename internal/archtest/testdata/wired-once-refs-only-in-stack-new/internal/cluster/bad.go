package cluster

func node() {
	_ = reg.Refs()
}
