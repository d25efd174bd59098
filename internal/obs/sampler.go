package obs

import (
	"net/http"
	"time"
)

// The tail sampler's keep reasons, in decision priority order. A span
// matching an earlier rule is tagged with that rule's reason even if a
// later one would also keep it (a cold slow request is "cold").
const (
	// KeepError: the request failed (transport error, 5xx other than
	// overload refusals, or any recorded error message).
	KeepError = "error"
	// KeepShed: the request was refused by overload control — 429
	// queue-full, 503 breaker/stopped, 504 deadline — the exact
	// requests an operator debugging saturation needs to see.
	KeepShed = "shed"
	// KeepCold: the request paid a cold start.
	KeepCold = "cold"
	// KeepSlow: end-to-end latency at or above the slow threshold.
	KeepSlow = "slow"
	// KeepSampled: an unremarkable success kept by the probabilistic
	// baseline so the ring also shows what normal looks like.
	KeepSampled = "sampled"
)

// KeepReasons lists every reason Decide can return, for metric
// pre-resolution.
func KeepReasons() []string {
	return []string{KeepError, KeepShed, KeepCold, KeepSlow, KeepSampled}
}

// SamplerConfig tunes tail-based sampling.
type SamplerConfig struct {
	// SlowThreshold always keeps spans whose end-to-end latency is at
	// or above it (0 disables the slow rule).
	SlowThreshold time.Duration
	// SampleRate is the keep probability for spans no always-keep rule
	// matched, in [0,1].
	SampleRate float64
}

// TailSampler decides, after a request completes, whether its span is
// worth a ring slot. Tail-based (decide-at-end) sampling is what lets
// the gateway keep every error, shed, cold start and slow-tail request
// while downsampling bulk success traffic: a head-based sampler must
// commit before it knows which of those the request will be. Decide is
// lock-free and allocation-free — one atomic add for the probabilistic
// draw is its only shared-state touch.
type TailSampler struct {
	slow      time.Duration
	threshold uint64 // SampleRate scaled to the uint64 range
	rng       *IDGen
}

// NewTailSampler builds a sampler from the config, clamping the rate
// into [0,1]. Its probabilistic draws start from a random seed.
func NewTailSampler(cfg SamplerConfig) *TailSampler {
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	var threshold uint64
	if rate >= 1 {
		threshold = ^uint64(0)
	} else {
		threshold = uint64(rate * float64(1<<63) * 2)
	}
	return &TailSampler{
		slow:      cfg.SlowThreshold,
		threshold: threshold,
		rng:       NewIDGen(0),
	}
}

// Decide returns whether to keep the span and the first matching keep
// reason ("" when dropped).
func (t *TailSampler) Decide(sp *Span) (string, bool) {
	switch {
	case sp.Status == http.StatusTooManyRequests,
		sp.Status == http.StatusServiceUnavailable,
		sp.Status == http.StatusGatewayTimeout:
		return KeepShed, true
	case sp.Err != "" || sp.Status >= 400:
		return KeepError, true
	case !sp.Reused:
		return KeepCold, true
	case t.slow > 0 && sp.Total() >= t.slow:
		return KeepSlow, true
	case t.rng.next() < t.threshold:
		return KeepSampled, true
	default:
		return "", false
	}
}
