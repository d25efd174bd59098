package live

import (
	"context"
	"time"
)

// clock is the node's one time source: every time read and wait of the
// gateway, its watchdogs and its builtins goes through g.clock, which New
// resolves to wallClock. A test that swaps it moves the whole node.
type clock interface {
	Now() time.Time
	// Sleep is nil once d has passed, ctx's error as soon as ctx is done
	// (at once when it already is, so an abandoned request starts no boot).
	Sleep(ctx context.Context, d time.Duration) error
	// NewTicker ticks every d, dropping ticks a slow reader misses.
	NewTicker(d time.Duration) (c <-chan time.Time, stop func())
	// WithDeadline is parent ended, with context.DeadlineExceeded, when
	// the clock reaches t.
	WithDeadline(parent context.Context, t time.Time) (context.Context, context.CancelFunc)
}

// wallClock is the process's clock, its readings monotonic.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (wallClock) NewTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

func (wallClock) WithDeadline(parent context.Context, t time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadline(parent, t)
}
