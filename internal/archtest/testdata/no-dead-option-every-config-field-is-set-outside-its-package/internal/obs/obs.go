package obs

// SLOConfig's ErrorBudget and SamplerConfig's Seed are set by tests
// alone.
type SLOConfig struct {
	LatencyThreshold int
	ErrorBudget      float64
}

type SamplerConfig struct {
	SampleRate float64
	Seed       uint64
}
