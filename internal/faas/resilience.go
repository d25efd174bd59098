package faas

import (
	"time"

	"hotc/internal/rng"
)

// Backoff computes retry delays: exponential growth from Base by
// Factor, capped at Max, with optional seeded jitter so synchronized
// failures do not retry in lockstep. The zero value is unusable; fill
// in Base or use DefaultBackoff.
type Backoff struct {
	// Base is the delay before the first retry.
	Base time.Duration
	// Factor multiplies the delay per attempt (default 2 when <= 1).
	Factor float64
	// Max caps the delay (0 = uncapped).
	Max time.Duration
	// JitterFrac spreads each delay uniformly over
	// [d*(1-JitterFrac), d*(1+JitterFrac)]. Requires Rng.
	JitterFrac float64
	// Rng supplies jitter draws; nil disables jitter.
	Rng *rng.Source
}

// DefaultBackoff is the schedule the gateway uses when none is
// configured: 100ms doubling to a 5s cap, no jitter.
func DefaultBackoff() Backoff {
	return Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: 5 * time.Second}
}

// Delay returns the delay before retry number attempt (0-based: the
// first retry waits Base).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.JitterFrac > 0 && b.Rng != nil {
		frac := b.JitterFrac
		if frac > 1 {
			frac = 1
		}
		// Uniform in [1-frac, 1+frac).
		d *= 1 - frac + 2*frac*b.Rng.Float64()
	}
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}
