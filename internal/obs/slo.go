package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// This file is the SLO monitor: multi-window error-budget burn rates
// computed online from per-second counter buckets. The shape follows
// the SRE-workbook multiwindow burn-rate alert — an objective allows a
// bad-event budget (e.g. 1% of requests may be slower than the latency
// target); the burn rate over a window is how many times faster than
// allowed the budget is being consumed; a breach is a burn rate >= 1
// sustained across both a short and a long window, which filters
// blips without missing slow leaks.

// The built-in objective names.
const (
	// SLOLatency: at least 99% of successful requests complete under
	// LatencyThreshold.
	SLOLatency = "latency"
	// SLOColdStart: at most ColdStartBudget of served requests pay a
	// cold start.
	SLOColdStart = "coldstart"
	// SLOGoodput: at most 0.1% of all requests end in 5xx.
	SLOGoodput = "goodput"
)

// SLOConfig declares the objectives the monitor tracks. A zero
// threshold or budget disables that objective; the goodput objective
// is always on.
type SLOConfig struct {
	// LatencyThreshold is the latency target: a 2xx request slower
	// than this is a bad event for the latency objective, which 99% of
	// them must meet — the threshold is the implied p99 target.
	LatencyThreshold time.Duration
	// ColdStartBudget is the allowed fraction of served requests that
	// may pay a cold start (0 disables the objective).
	ColdStartBudget float64
	// Now is the clock; tests inject a fake. Default time.Now.
	Now func() time.Time
}

// sloWindows are the burn-rate evaluation windows, ascending. The
// longest bounds the monitor's memory: one 56-byte bucket per second of
// it, allocated 64 seconds at a time as the clock first reaches them.
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// sloEpochResetting marks a bucket mid-recycle: writers that lose the
// recycle race spin until the winner publishes the new epoch.
const sloEpochResetting = math.MinInt64

// sloBucket accumulates one second of request outcomes. All fields
// are atomics: recording is lock-free from any number of handlers.
type sloBucket struct {
	epoch atomic.Int64 // unix second held, or sloEpochResetting
	// Denominators: total requests, 2xx requests, requests that
	// reached a watchdog. Numerators: slow 2xx, cold served, 5xx.
	total  atomic.Uint64
	ok     atomic.Uint64
	served atomic.Uint64
	slow   atomic.Uint64
	cold   atomic.Uint64
	errs   atomic.Uint64
}

// sloChunk is how many seconds' buckets are allocated together.
const sloChunk = 64

// SLOMonitor ingests per-request outcomes and answers burn-rate
// queries over its windows. Record is the hot-path entry: resolve the
// current second's bucket (two atomic loads in the common case) and
// bump up to four atomic counters — no locks, and no allocation but one
// 3.6 KB chunk of buckets per 64 s until the horizon is full.
type SLOMonitor struct {
	cfg SLOConfig
	// chunks hold the per-second buckets, nil until first recorded
	// into: second s lives in bucket i = s % buckets, which is
	// chunks[i/sloChunk][i%sloChunk]. A missing chunk reads as empty.
	chunks  []atomic.Pointer[[sloChunk]sloBucket]
	buckets int64

	// Pre-resolved gauge handles, nil until Instrument.
	burn    *GaugeVec // hotc_slo_burn_rate{objective, window}
	badFrac *GaugeVec // hotc_slo_bad_fraction{objective, window}
	breach  *GaugeVec // hotc_slo_breach{objective}
	budget  *GaugeVec // hotc_slo_budget{objective}
}

// The objectives' budgets. latencyBudget is the fraction of successful
// requests that may miss SLOConfig.LatencyThreshold: a 99% objective,
// stated exactly, not as 1 − 0.99 in float64 (0.010000000000000009), so
// a bad fraction of exactly 1% burns at exactly 1. errorBudget is the
// fraction of requests that may end in 5xx: 99.9% goodput.
const (
	latencyBudget = 0.01
	errorBudget   = 0.001
)

// NewSLOMonitor builds a monitor over the 1m, 5m and 30m windows.
func NewSLOMonitor(cfg SLOConfig) *SLOMonitor {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	buckets := int64(sloWindows[len(sloWindows)-1]/time.Second) + 2
	return &SLOMonitor{
		cfg:     cfg,
		chunks:  make([]atomic.Pointer[[sloChunk]sloBucket], (buckets+sloChunk-1)/sloChunk),
		buckets: buckets,
	}
}

// stored returns second sec's bucket, or nil when its chunk was never
// recorded into.
func (m *SLOMonitor) stored(sec int64) *sloBucket {
	i := sec % m.buckets
	if c := m.chunks[i/sloChunk].Load(); c != nil {
		return &c[i%sloChunk]
	}
	return nil
}

// bucket resolves (recycling if stale) the bucket for unix second
// sec, allocating its chunk if nothing has recorded into it yet.
// Returns nil when the bucket already moved past sec — a writer
// descheduled for longer than the whole horizon — whose observation
// is then dropped rather than misfiled.
func (m *SLOMonitor) bucket(sec int64) *sloBucket {
	b := m.stored(sec)
	if b == nil {
		fresh := new([sloChunk]sloBucket)
		for i := range fresh {
			fresh[i].epoch.Store(-1)
		}
		m.chunks[sec%m.buckets/sloChunk].CompareAndSwap(nil, fresh)
		b = m.stored(sec)
	}
	for {
		e := b.epoch.Load()
		switch {
		case e == sec:
			return b
		case e == sloEpochResetting:
			continue // recycle in progress; it publishes in a few stores
		case e > sec:
			return nil
		default:
			if b.epoch.CompareAndSwap(e, sloEpochResetting) {
				b.total.Store(0)
				b.ok.Store(0)
				b.served.Store(0)
				b.slow.Store(0)
				b.cold.Store(0)
				b.errs.Store(0)
				b.epoch.Store(sec)
				return b
			}
		}
	}
}

// Record ingests one completed request: its HTTP status, whether it
// reached a watchdog, whether it paid a cold start, and its
// end-to-end latency.
func (m *SLOMonitor) Record(status int, served, cold bool, latency time.Duration) {
	b := m.bucket(m.cfg.Now().Unix())
	if b == nil {
		return
	}
	b.total.Add(1)
	if status >= 200 && status < 300 {
		b.ok.Add(1)
		if m.cfg.LatencyThreshold > 0 && latency > m.cfg.LatencyThreshold {
			b.slow.Add(1)
		}
	}
	if status >= 500 {
		b.errs.Add(1)
	}
	if served {
		b.served.Add(1)
		if cold {
			b.cold.Add(1)
		}
	}
}

// SLOWindow is one objective's burn state over one window.
type SLOWindow struct {
	// Seconds is the window length.
	Seconds int `json:"seconds"`
	// Total and Bad are the objective's denominator and bad-event
	// counts inside the window.
	Total uint64 `json:"total"`
	Bad   uint64 `json:"bad"`
	// BadFraction is Bad/Total (0 when the window is empty).
	BadFraction float64 `json:"badFraction"`
	// BurnRate is BadFraction over the allowed budget: 1.0 burns the
	// budget exactly as fast as the objective allows, higher is a
	// leak.
	BurnRate float64 `json:"burnRate"`
}

// SLOObjective is one objective's full burn report.
type SLOObjective struct {
	Name string `json:"name"`
	// Budget is the allowed bad fraction.
	Budget  float64     `json:"budget"`
	Windows []SLOWindow `json:"windows"`
	// Breach is true when the burn rate is >= 1 in both the shortest
	// and the longest window (the multiwindow rule: sustained, not a
	// blip).
	Breach bool `json:"breach"`
}

// SLOReport is the /system/slo payload.
type SLOReport struct {
	Objectives []SLOObjective `json:"objectives"`
}

// windowCounts sums bucket counters over the trailing window ending
// at nowSec.
type sloCounts struct {
	total, ok, served, slow, cold, errs uint64
}

func (m *SLOMonitor) windowCounts(nowSec int64, window time.Duration) sloCounts {
	var c sloCounts
	secs := int64(window / time.Second)
	for s := nowSec - secs + 1; s <= nowSec; s++ {
		b := m.stored(s)
		if b == nil || b.epoch.Load() != s {
			continue // never written or already recycled
		}
		c.total += b.total.Load()
		c.ok += b.ok.Load()
		c.served += b.served.Load()
		c.slow += b.slow.Load()
		c.cold += b.cold.Load()
		c.errs += b.errs.Load()
	}
	return c
}

// Report computes every enabled objective's burn rates now.
func (m *SLOMonitor) Report() SLOReport {
	nowSec := m.cfg.Now().Unix()
	var counts [len(sloWindows)]sloCounts
	for i, w := range sloWindows {
		counts[i] = m.windowCounts(nowSec, w)
	}

	var rep SLOReport
	objective := func(name string, budget float64, pick func(sloCounts) (total, bad uint64)) {
		obj := SLOObjective{Name: name, Budget: budget}
		for i, w := range sloWindows {
			total, bad := pick(counts[i])
			win := SLOWindow{Seconds: int(w / time.Second), Total: total, Bad: bad}
			if total > 0 {
				win.BadFraction = float64(bad) / float64(total)
				win.BurnRate = win.BadFraction / budget
			}
			obj.Windows = append(obj.Windows, win)
		}
		obj.Breach = obj.Windows[0].BurnRate >= 1 &&
			obj.Windows[len(obj.Windows)-1].BurnRate >= 1
		rep.Objectives = append(rep.Objectives, obj)
	}

	if m.cfg.LatencyThreshold > 0 {
		objective(SLOLatency, latencyBudget,
			func(c sloCounts) (uint64, uint64) { return c.ok, c.slow })
	}
	if m.cfg.ColdStartBudget > 0 {
		objective(SLOColdStart, m.cfg.ColdStartBudget,
			func(c sloCounts) (uint64, uint64) { return c.served, c.cold })
	}
	objective(SLOGoodput, errorBudget,
		func(c sloCounts) (uint64, uint64) { return c.total, c.errs })
	return rep
}

// Instrument registers the hotc_slo_* gauge families on the registry.
// Sync refreshes them; the daemon calls it on every /metrics scrape so
// the exported burn rates are as fresh as the scrape.
func (m *SLOMonitor) Instrument(reg *Registry) {
	m.burn = reg.GaugeVec("hotc_slo_burn_rate",
		"Error-budget burn rate per objective and window (1.0 = burning exactly the allowed budget).",
		"objective", "window")
	m.badFrac = reg.GaugeVec("hotc_slo_bad_fraction",
		"Fraction of bad events per objective and window.",
		"objective", "window")
	m.breach = reg.GaugeVec("hotc_slo_breach",
		"Whether the objective is breaching (burn rate >= 1 in both the shortest and longest window).",
		"objective")
	m.budget = reg.GaugeVec("hotc_slo_budget",
		"Allowed bad-event fraction per objective.",
		"objective")
}

// Sync recomputes the report and pushes it into the registered
// gauges. No-op before Instrument. Returns the report so callers
// serving /system/slo refresh the gauges and the JSON from one pass.
func (m *SLOMonitor) Sync() SLOReport {
	rep := m.Report()
	if m.burn == nil {
		return rep
	}
	for _, obj := range rep.Objectives {
		m.budget.With(obj.Name).Set(obj.Budget)
		breach := 0.0
		if obj.Breach {
			breach = 1
		}
		m.breach.With(obj.Name).Set(breach)
		for _, w := range obj.Windows {
			label := (time.Duration(w.Seconds) * time.Second).String()
			m.burn.With(obj.Name, label).Set(w.BurnRate)
			m.badFrac.With(obj.Name, label).Set(w.BadFraction)
		}
	}
	return rep
}
