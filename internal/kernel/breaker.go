package kernel

import (
	"fmt"
	"time"

	"hotc/internal/simclock"
)

// BreakerState is the circuit-breaker state.
type BreakerState int

const (
	// BreakerClosed passes requests through, counting consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects the guarded operation until the open window
	// elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe through; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("kernel.BreakerState(%d)", int(s))
	}
}

// Breaker is a per-runtime-key circuit breaker over container
// acquisition. It trips open after Threshold consecutive failures,
// rejects while open, half-opens after OpenFor of virtual time, and
// closes again on a successful probe. It is not safe for concurrent
// use: in the simulator it lives on the simulation goroutine, in the
// live gateway the function's shard mutex guards it.
type Breaker struct {
	// Threshold is the consecutive-failure count that trips the breaker.
	Threshold int
	// OpenFor is the open window before a probe is allowed.
	OpenFor time.Duration

	state    BreakerState
	fails    int
	openedAt simclock.Time
	probing  bool
}

// NewBreaker returns a closed breaker. threshold <= 0 defaults to 5;
// openFor <= 0 defaults to 30s.
func NewBreaker(threshold int, openFor time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if openFor <= 0 {
		openFor = 30 * time.Second
	}
	return &Breaker{Threshold: threshold, OpenFor: openFor}
}

// State reports the breaker state at the given virtual time (an open
// breaker whose window has elapsed reads as half-open).
func (b *Breaker) State(now simclock.Time) BreakerState {
	if b.state == BreakerOpen && now >= b.openedAt+b.OpenFor {
		return BreakerHalfOpen
	}
	return b.state
}

// RemainingOpen reports how much of the open window is left at now —
// the honest Retry-After for a fast-failed request. Zero when the
// breaker is closed or already due for a half-open probe.
func (b *Breaker) RemainingOpen(now simclock.Time) time.Duration {
	if b.state == BreakerOpen && now < b.openedAt+b.OpenFor {
		return b.openedAt + b.OpenFor - now
	}
	return 0
}

// Allow reports whether the guarded operation may proceed at now.
// While open it returns false; once the open window elapses it admits
// exactly one probe (half-open) and rejects the rest until the probe
// resolves via OnSuccess or OnFailure.
func (b *Breaker) Allow(now simclock.Time) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now >= b.openedAt+b.OpenFor {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		return false
	case BreakerHalfOpen:
		if b.probing {
			return false // a probe is already in flight
		}
		b.probing = true
		return true
	}
	return true
}

// OnSuccess records a successful operation: it resets the failure
// count and closes a half-open breaker.
func (b *Breaker) OnSuccess() {
	b.fails = 0
	b.probing = false
	b.state = BreakerClosed
}

// OnFailure records a failed operation at now. In the closed state it
// trips the breaker once Threshold consecutive failures accumulate; in
// the half-open state the failed probe re-opens immediately. It
// reports whether this failure tripped the breaker open.
func (b *Breaker) OnFailure(now simclock.Time) bool {
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.state = BreakerOpen
		b.openedAt = now
		return true
	case BreakerOpen:
		return false
	default:
		b.fails++
		if b.fails >= b.Threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.fails = 0
			return true
		}
		return false
	}
}
