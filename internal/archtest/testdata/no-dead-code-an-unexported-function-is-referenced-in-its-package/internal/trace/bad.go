package trace

func unused() {}
