package live

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"hotc/internal/admission"
)

// The overload-control request headers. Tenants tag their traffic so
// fair queuing can tell them apart; deadlines bound how long a request
// may queue and execute before shedding beats serving.
const (
	// TenantHeader names the tenant a request bills to. Untagged
	// requests bill to the function itself, so fairness degrades to
	// per-function instead of collapsing to one shared bucket.
	TenantHeader = "X-Hotc-Tenant"
	// DeadlineHeader carries the request's end-to-end deadline in
	// milliseconds from arrival, overriding the gateway's default
	// (0 = explicitly no deadline).
	DeadlineHeader = "X-Hotc-Deadline-Ms"
	// RejectedHeader reports why an admission-rejected request was
	// refused (queue_full, deadline, stopped).
	RejectedHeader = "X-Hotc-Rejected"
	// DrainingHeader marks 503 refusals from a draining gateway (see
	// Gateway.SetDraining): the router reads it as "place elsewhere,
	// permanently, until this node undrains" rather than "retry later".
	DrainingHeader = "X-Hotc-Draining"
)

// newAdmissionQueue builds one shard's admission queue (see
// internal/admission: bounded per-tenant queues in front of the warm
// pool, deadline-aware shedding, weighted fair dispatch), wiring its
// occupancy hooks to the shard's gauges.
func (g *Gateway) newAdmissionQueue(s *shard) *admission.Queue {
	return admission.New(admission.Config{
		MaxInFlight:  g.cfg.MaxInFlight,
		QueueDepth:   g.cfg.QueueDepth,
		Weights:      g.cfg.TenantWeights,
		Now:          func() time.Time { return g.nowFn() },
		OnQueueDepth: func(n int) { s.m.admDepth.Set(float64(n)) },
		OnInFlight:   func(n int) { s.m.admInFlight.Set(float64(n)) },
	})
}

// maxDeadlineMs is the largest DeadlineHeader value a time.Duration
// holds; a larger one would wrap around.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// requestDeadline resolves a request's absolute deadline: the
// DeadlineHeader override when present, else the configured default;
// zero time means none. A header that does not parse, or lies outside
// [0, maxDeadlineMs], is refused.
func (g *Gateway) requestDeadline(r *http.Request, start time.Time) (time.Time, error) {
	d := g.cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms < 0 || ms > maxDeadlineMs {
			return time.Time{}, fmt.Errorf("live: bad %s %q (want milliseconds in [0, %d])", DeadlineHeader, h, maxDeadlineMs)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return time.Time{}, nil
	}
	return start.Add(d), nil
}

// admit is the admission stage: pass the bounded, deadline-shedding,
// tenant-fair queue before touching the warm pool (a no-op pass when
// admission is off). Admitted, the request holds a ticket until handle
// is done with it; refused, the ending carries the 429/503 and its
// Retry-After — or 499 and no refusal when the client hung up while
// queued and nobody is listening for a status line.
func (g *Gateway) admit(req *request) ending {
	s := req.s
	if s.adm == nil {
		return ending{}
	}
	ticket, rej := s.adm.Acquire(req.r.Context(), req.rt.tenant, req.deadline)
	if rej == nil {
		req.ticket = ticket
		req.rt.queueWait = ticket.Waited()
		s.m.admWait.ObserveDuration(ticket.Waited())
		return ending{}
	}
	g.obs.admRejected.With(s.name, string(rej.Reason)).Inc()
	if rej.Reason == admission.ReasonCanceled {
		return ending{outcome: "canceled", status: statusClientClosedRequest,
			event: "canceled", detail: "client disconnect while queued"}
	}
	status := http.StatusTooManyRequests
	if rej.Reason == admission.ReasonStopped {
		status = http.StatusServiceUnavailable
	}
	return ending{outcome: "rejected", status: status,
		refusal:    fmt.Sprintf("live: overloaded (%s) for %q", rej.Reason, s.name),
		retryAfter: rej.RetryAfter, rejected: rej.Reason,
		event: "admission-rejected", detail: string(rej.Reason)}
}

// AdmissionStats snapshots every function's admission queue (empty map
// when admission is off).
func (g *Gateway) AdmissionStats() map[string]admission.Stats {
	out := make(map[string]admission.Stats)
	for _, s := range g.snapshotShards() {
		if s.adm != nil {
			out[s.name] = s.adm.Snapshot()
		}
	}
	return out
}

// WarmMemoryStats reports the estimated warm-instance memory footprint
// against the configured budget (both zero when no budget is set).
type WarmMemoryStats struct {
	BudgetBytes int64 `json:"budgetBytes"`
	WarmBytes   int64 `json:"warmBytes"`
	// Reclaimed counts instances evicted by budget pressure.
	Reclaimed int `json:"reclaimed"`
}

// instanceMemBytes is what one warm instance or idle generic counts
// against MemoryBudget: the order of a small language runtime's RSS.
const instanceMemBytes = 64 << 20

// WarmMemory snapshots the memory-budget accounting. Idle generic
// pre-forked watchdogs count against the budget like any other warm
// instance.
func (g *Gateway) WarmMemory() WarmMemoryStats {
	if g.cfg.MemoryBudget <= 0 {
		return WarmMemoryStats{}
	}
	total := 0
	for _, s := range g.snapshotShards() {
		total += int(s.m.warm.Value())
	}
	if g.cold.pool != nil {
		total += g.cold.pool.Idle()
	}
	return WarmMemoryStats{
		BudgetBytes: g.cfg.MemoryBudget,
		WarmBytes:   int64(total) * instanceMemBytes,
		Reclaimed:   int(g.obs.admMemReclaimed.Value()),
	}
}

// reclaimMemoryOnce enforces the warm-memory budget: when the summed
// per-instance estimates exceed it, warm capacity is reclaimed from
// the functions holding the most (the over-quota tenants), oldest
// instances first, until the estimate fits. Water-filling keeps the
// eviction proportional: every shard is cut down to the same level L
// before any shard below L loses an instance. Runs from the janitor;
// tests call it directly. Returns the number of instances reclaimed.
func (g *Gateway) reclaimMemoryOnce() int {
	budget := g.cfg.MemoryBudget
	if budget <= 0 || g.stopped.Load() {
		return 0
	}
	budgetInst := int(budget / instanceMemBytes)

	shards := g.snapshotShards()
	counts := make([]int, len(shards))
	total := 0
	for i, s := range shards {
		counts[i] = int(s.m.warm.Value())
		total += counts[i]
	}
	generics := 0
	if g.cold.pool != nil {
		generics = g.cold.pool.Idle()
		total += generics
	}
	ins := g.obs
	ins.admMemBytes.Set(float64(total) * instanceMemBytes)
	if total <= budgetInst {
		return 0
	}

	// Generic pre-forked watchdogs are the cheapest memory to hand
	// back — no function state or warm affinity is lost, and the pool
	// re-grows whenever the budget allows — so they go first, oldest
	// first.
	reapedGen := 0
	if excess := total - budgetInst; generics > 0 {
		want := excess
		if want > generics {
			want = generics
		}
		reapedGen = g.cold.pool.Reap(want)
		ins.coldReaped.Add(float64(reapedGen))
		total -= reapedGen
	}

	// Water-filling over the warm shards for the remainder: find the
	// level L such that capping every shard at L fits the budget, then
	// each shard's quota is what it holds past L (spread one-by-one
	// across the largest when L is fractional). The remaining generics
	// (all reaped by now unless the pool emptied mid-scan) stay counted
	// against the shard budget; the quota is all zero when reaping
	// generics already fit it.
	quota := overQuota(counts, budgetInst-(generics-reapedGen))

	var doomed []*instance
	for i, s := range shards {
		if quota[i] <= 0 {
			continue
		}
		s.mu.Lock()
		doomed = append(doomed, s.takeOldestLocked(quota[i], evictBudget)...)
		s.mu.Unlock()
	}
	reclaimed := reapedGen + len(doomed)
	if reclaimed > 0 {
		ins.admMemReclaimed.Add(float64(reclaimed))
		ins.admMemBytes.Set(float64(total-len(doomed)) * instanceMemBytes)
	}
	stopAll(doomed)
	return reclaimed
}

// overQuota distributes the eviction burden of fitting counts into
// budget: shards are cut down toward a common water level, largest
// holders first, and nobody below the level is touched. Equal holders
// give in index order — name order, counts being in registry order.
// Returns the per-shard eviction quota.
func overQuota(counts []int, budget int) []int {
	quota := make([]int, len(counts))
	total := 0
	for _, c := range counts {
		total += c
	}
	excess := total - budget
	if excess <= 0 || len(counts) == 0 {
		return quota
	}
	// Peel one instance at a time from the current largest holder:
	// O(excess * n) with tiny constants, and exactly the water-filling
	// result without fractional-level bookkeeping.
	remaining := append([]int(nil), counts...)
	for evicted := 0; evicted < excess; evicted++ {
		best := 0
		for i := range remaining {
			if remaining[i] > remaining[best] {
				best = i
			}
		}
		if remaining[best] == 0 {
			break
		}
		remaining[best]--
		quota[best]++
	}
	return quota
}

// statusClientClosedRequest is the span status for requests abandoned
// by their client before any status line went out (nginx's 499
// convention) — not a wire status, only trace/SLO bookkeeping.
const statusClientClosedRequest = 499
