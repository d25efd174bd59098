package admission

// Config's Weights is set by a test and by its own defaulting, never by
// the gateway that builds the queue.
type Config struct {
	MaxInFlight int
	Weights     map[string]int
}

func (c Config) withDefaults() Config {
	if c.Weights == nil {
		c.Weights = map[string]int{}
	}
	return c
}
