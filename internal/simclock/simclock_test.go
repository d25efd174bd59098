package simclock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var fired Time = -1
	s.After(5*time.Second, func() { fired = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5*time.Second {
		t.Fatalf("event fired at %v, want 5s", fired)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
}

func TestEventsFireInDeadlineOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events fired out of order: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var hit []Time
	s.After(time.Second, func() {
		hit = append(hit, s.Now())
		s.After(time.Second, func() {
			hit = append(hit, s.Now())
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hit) != 2 || hit[0] != time.Second || hit[1] != 2*time.Second {
		t.Fatalf("hit = %v, want [1s 2s]", hit)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ev := s.After(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel() = false on pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New()
	ev := s.After(time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev.Cancel() {
		t.Fatal("Cancel() after firing = true, want false")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		s.After(d, func() { fired = append(fired, s.Now()) })
	}
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
}

func TestRunUntilAdvancesWithNoEvents(t *testing.T) {
	s := New()
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", s.Now())
	}
}

func TestRunUntilPastReturnsError(t *testing.T) {
	s := New()
	s.Sleep(time.Minute)
	if err := s.RunUntil(time.Second); err == nil {
		t.Fatal("RunUntil into the past did not error")
	}
}

func TestEvery(t *testing.T) {
	s := New()
	count := 0
	stop := s.Every(time.Second, func() {
		count++
		if count == 5 {
			// stopping from inside the callback must halt the series
		}
	})
	s.Sleep(5 * time.Second)
	stop()
	s.Sleep(10 * time.Second)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5", count)
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var stop func()
	stop = s.Every(time.Second, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Sleep(time.Minute)
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	s.At(time.Second, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestEventLimit(t *testing.T) {
	s := New()
	s.SetEventLimit(10)
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.After(time.Millisecond, loop)
	if err := s.Run(); err != ErrEventLimit {
		t.Fatalf("Run() = %v, want ErrEventLimit", err)
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: no matter what (non-negative) delays are scheduled, events
// fire in non-decreasing time order and the clock never goes backwards.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fireTimes []Time
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			s.After(dd, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Step and RunUntil never loses or duplicates
// events.
func TestPropertyStepRunUntilEquivalence(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() (*Scheduler, *int) {
			s := New()
			count := new(int)
			for i := 0; i < int(n); i++ {
				s.After(time.Duration(r.Intn(1000))*time.Millisecond, func() { *count++ })
			}
			return s, count
		}
		r = rand.New(rand.NewSource(seed))
		s1, c1 := mk()
		if err := s1.Run(); err != nil {
			return false
		}
		r = rand.New(rand.NewSource(seed))
		s2, c2 := mk()
		for s2.Step() {
		}
		return *c1 == *c2 && *c1 == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// firing is one line of a scheduler's observable history.
type firing struct {
	at    Time
	label string
}

// driveArrivals runs one seeded scenario and returns everything that
// fired, in order. The arrivals are scheduled either as one AtEach
// stream or as the loop of At calls it replaces; the rest of the
// scenario is the same: the scheduler has already run for a while, a
// ticker and a handful of one-shot events that land on arrival instants
// exist before the arrivals do, more one-shots are scheduled after
// them, and each arrival's callback schedules zero-delay and
// same-instant follow-ups and cancels earlier ones.
func driveArrivals(seed int64, stream bool) ([]firing, uint64) {
	rnd := rand.New(rand.NewSource(seed))
	const quantum = 5 * time.Millisecond
	s := New()
	var log []firing
	note := func(label string) { log = append(log, firing{s.Now(), label}) }

	// Start from a used scheduler: time has passed and sequence numbers
	// have been handed out.
	s.After(quantum, func() { note("warmup") })
	if err := s.RunUntil(time.Second); err != nil {
		panic(err)
	}
	base := s.Now()

	// Non-decreasing arrival times on the ticker's grid, with ties.
	whens := make([]Time, 300)
	at := base
	for i := range whens {
		if rnd.Intn(3) > 0 {
			at += Time(rnd.Intn(4)) * quantum
		}
		whens[i] = at
	}
	last := whens[len(whens)-1]

	var stopTicker func()
	stopTicker = s.Every(2*quantum, func() {
		note("tick")
		if s.Now() > last+20*quantum {
			stopTicker()
		}
	})
	for j := 0; j < 20; j++ {
		j := j
		s.At(whens[rnd.Intn(len(whens))], func() { note(fmt.Sprint("before ", j)) })
	}

	// What each arrival does is fixed per index, so both schedulers are
	// asked to do the same things.
	kinds := make([]int, len(whens))
	delays := make([]time.Duration, len(whens))
	for i := range kinds {
		kinds[i] = rnd.Intn(4)
		delays[i] = Time(rnd.Intn(3)) * quantum
	}
	var cancelable []*Event
	arrive := func(i int) {
		note(fmt.Sprint("arrive ", i))
		switch kinds[i] {
		case 1:
			s.After(0, func() { note(fmt.Sprint("zero ", i)) })
		case 2:
			cancelable = append(cancelable, s.After(delays[i], func() { note(fmt.Sprint("later ", i)) }))
		case 3:
			if n := len(cancelable); n > 0 {
				cancelable[n-1].Cancel()
				cancelable = cancelable[:n-1]
			}
			s.After(0, func() { note(fmt.Sprint("canceled by ", i)) })
		}
	}
	if stream {
		s.AtEach(whens, arrive)
	} else {
		for i, when := range whens {
			i := i
			s.At(when, func() { arrive(i) })
		}
	}
	for j := 0; j < 20; j++ {
		j := j
		s.At(whens[rnd.Intn(len(whens))], func() { note(fmt.Sprint("after ", j)) })
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return log, s.Fired()
}

// An arrival stream is indistinguishable from scheduling every arrival
// as its own event: the same callbacks fire at the same instants in the
// same order, ties against older and younger events included.
func TestAtEachMatchesUpfrontScheduling(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got, gotFired := driveArrivals(seed, true)
		want, wantFired := driveArrivals(seed, false)
		if gotFired != wantFired {
			t.Fatalf("seed %d: stream fired %d events, upfront scheduling %d", seed, gotFired, wantFired)
		}
		if len(got) != len(want) || len(got) < 300 {
			t.Fatalf("seed %d: stream logged %d firings, upfront scheduling %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %v, upfront scheduling gives %v", seed, i, got[i], want[i])
			}
		}
	}
}

// The stream keeps one entry queued however long the trace is.
func TestAtEachQueueDepth(t *testing.T) {
	s := New()
	whens := make([]Time, 1000)
	for i := range whens {
		whens[i] = Time(i) * time.Millisecond
	}
	fired := 0
	s.AtEach(whens, func(int) {
		fired++
		if s.Pending() > 1 {
			t.Fatalf("%d events pending behind arrival %d", s.Pending(), fired)
		}
	})
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after AtEach, want 1", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != len(whens) || s.Fired() != uint64(len(whens)) {
		t.Fatalf("fired %d callbacks, Fired() = %d, want %d", fired, s.Fired(), len(whens))
	}
	s.AtEach(nil, func(int) { t.Fatal("empty stream fired") })
	if s.Pending() != 0 {
		t.Fatalf("empty stream left %d events", s.Pending())
	}
}

func TestAtEachRejectsBadStreams(t *testing.T) {
	mustPanic := func(name string, f func(s *Scheduler)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		s := New()
		s.After(time.Second, func() {})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		f(s)
	}
	mustPanic("first arrival in the past", func(s *Scheduler) {
		s.AtEach([]Time{s.Now() - 1, s.Now()}, func(int) {})
	})
	mustPanic("decreasing deadlines", func(s *Scheduler) {
		s.AtEach([]Time{s.Now() + 2, s.Now() + 1}, func(int) {})
	})
	mustPanic("nil callback", func(s *Scheduler) {
		s.AtEach([]Time{s.Now()}, nil)
	})
}
