// Package host models the physical machine under the container
// engine: its resource capacity (the paper's Dell T430 server and
// Raspberry Pi 3 profiles) and a periodic resource monitor that
// reproduces the Fig. 15 measurements — CPU and memory usage as a
// function of the number of live containers and of a containerised
// application's lifecycle.
//
// The monitor's memory signal also implements the paper's §IV.B
// heuristic: HotC "identif[ies] the memory pressure through monitoring
// used_mem and used_swap in the kernel"; here UsedMemPct is that
// heuristic's simulated equivalent and feeds the pool's eviction
// threshold.
package host

import (
	"time"

	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/metrics"
	"hotc/internal/simclock"
)

// Host couples a hardware profile with the engine running on it.
type Host struct {
	prof costmodel.Profile
	eng  *container.Engine
}

// New returns a Host for the engine's profile.
func New(eng *container.Engine) *Host {
	if eng == nil {
		panic("host: nil engine")
	}
	return &Host{prof: eng.Model().P, eng: eng}
}

// Profile returns the hardware profile.
func (h *Host) Profile() costmodel.Profile { return h.prof }

// UsedMemMB reports current memory usage: the OS base footprint, the
// idle cost of live containers (~0.7 MB each, Fig. 15a) and the
// resident memory of executing workloads.
func (h *Host) UsedMemMB() float64 {
	return h.prof.BaseMemMB + h.eng.IdleOverheadMemMB() + h.eng.ActiveMemMB()
}

// UsedMemPct reports memory usage as a percentage of the host's
// physical memory — the pool's eviction signal. Demand beyond physical
// memory, which spills to swap (the heuristic's used_swap > 0), pins
// the signal above 100, so the pool sheds containers aggressively when
// the host is thrashing.
func (h *Host) UsedMemPct() float64 {
	return 100 * h.UsedMemMB() / h.prof.TotalMemoryMB
}

// UsedCPUPct reports current CPU usage in percent of one core-set
// (0-100 scale like the paper's plots): OS base, idle container
// overhead, and executing workloads, saturating at 100.
func (h *Host) UsedCPUPct() float64 {
	v := h.prof.BaseCPUPct + h.eng.IdleOverheadCPUPct() + h.eng.ActiveCPUPct()
	if v > 100 {
		v = 100
	}
	return v
}

// Monitor samples host resources on a fixed interval into time series,
// producing the Fig. 15 plots.
type Monitor struct {
	// CPU and Mem are the sampled series (percent and MB).
	CPU metrics.TimeSeries
	Mem metrics.TimeSeries

	host  *Host
	sched *simclock.Scheduler
	stop  func()
}

// NewMonitor creates a monitor for the host on the given scheduler.
func NewMonitor(h *Host, sched *simclock.Scheduler) *Monitor {
	if h == nil || sched == nil {
		panic("host: NewMonitor requires host and scheduler")
	}
	return &Monitor{host: h, sched: sched}
}

// Start begins sampling every interval. It panics if already running.
func (m *Monitor) Start(interval time.Duration) {
	if m.stop != nil {
		panic("host: monitor already running")
	}
	sample := func() {
		now := m.sched.Now()
		m.CPU.Add(now, m.host.UsedCPUPct())
		m.Mem.Add(now, m.host.UsedMemMB())
	}
	sample() // t=0 sample
	m.stop = m.sched.Every(interval, sample)
}

// Stop halts sampling. Safe to call when not running.
func (m *Monitor) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}
