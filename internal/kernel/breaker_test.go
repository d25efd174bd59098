package kernel

import (
	"testing"
	"time"
)

// breakerModel is the breaker's contract as a table: its state, its
// failure streak, when it opened and whether a probe is out.
type breakerModel struct {
	state   BreakerState
	fails   int
	opened  time.Duration
	probing bool
}

// step applies one event (0 Allow, 1 OnSuccess, 2 OnFailure) at now and
// returns what Allow or OnFailure answers.
func (m *breakerModel) step(event byte, now, openFor time.Duration, threshold int) bool {
	due := m.state == BreakerOpen && now >= m.opened+openFor
	switch {
	case event == 0 && (m.state == BreakerClosed):
		return true
	case event == 0 && (due || m.state == BreakerHalfOpen && !m.probing):
		m.state, m.probing = BreakerHalfOpen, true
		return true
	case event == 1:
		*m = breakerModel{}
	case event == 2 && (m.state == BreakerHalfOpen || m.state == BreakerClosed && m.fails+1 >= threshold):
		*m = breakerModel{state: BreakerOpen, opened: now}
		return true
	case event == 2 && m.state == BreakerClosed:
		m.fails++
	}
	return false
}

// FuzzBreaker drives a breaker and its table model with the same events
// and clock: before each event both read the same state and open time
// left, and each Allow and OnFailure answers alike — a trip is an
// OnFailure that answers true. An op byte is an event (op % 3) after the
// clock advances op / 3 seconds. The seeds are the breaker's rows in
// internal/faas's resilience tests.
func FuzzBreaker(f *testing.F) {
	f.Add(uint8(3), uint8(10), []byte{0, 5, 5, 5, 6, 5, 21, 0, 1, 3}) // the state machine
	f.Add(uint8(1), uint8(10), []byte{2, 33, 2, 27, 6})               // a failed probe reopens
	f.Add(uint8(3), uint8(1), []byte{2, 2, 1, 2, 2})                  // a success resets the streak
	f.Fuzz(func(t *testing.T, threshold, openSec uint8, ops []byte) {
		th, openFor := max(int(threshold%8), 1), time.Duration(max(openSec, 1))*time.Second
		b, m := NewBreaker(th, openFor), &breakerModel{}
		now := time.Duration(0)
		for i, op := range ops {
			now += time.Duration(op/3) * time.Second
			want, left := m.state, time.Duration(0)
			if m.state == BreakerOpen && now >= m.opened+openFor {
				want = BreakerHalfOpen
			} else if m.state == BreakerOpen {
				left = m.opened + openFor - now
			}
			if got := b.State(now); got != want || b.RemainingOpen(now) != left {
				t.Fatalf("op %d at %v: state %v, %v left; the model says %v, %v", i, now, got, b.RemainingOpen(now), want, left)
			}
			var got bool
			switch op % 3 {
			case 0:
				got = b.Allow(now)
			case 1:
				b.OnSuccess()
			case 2:
				got = b.OnFailure(now)
			}
			if want := m.step(op%3, now, openFor, th); got != want {
				t.Fatalf("op %d (event %d at %v) answered %v, the model %v", i, op%3, now, got, want)
			}
		}
	})
}
