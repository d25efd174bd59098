package trace

func unused() {}

// replay is called by its test alone.
func replay() int { return 1 }
