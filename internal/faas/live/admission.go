package live

import (
	"context"
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
// pool, deadline-aware shedding, round-robin dispatch), wiring its
// occupancy hooks to the shard's gauges.
func (g *Gateway) newAdmissionQueue(s *shard) *admission.Queue {
	return admission.New(admission.Config{
		MaxInFlight:  g.cfg.MaxInFlight,
		QueueDepth:   g.cfg.QueueDepth,
		Now:          func() time.Time { return g.clock.Now() },
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
// admission is off). ctx carries the request's deadline, which wakes it
// if it is still queued then. Admitted, the request holds a ticket
// until handle is done with it; refused, the ending carries the 429/503
// and its Retry-After — or 499 and no refusal when the client hung up
// while queued and nobody is listening for a status line.
func (g *Gateway) admit(ctx context.Context, req *request) ending {
	s := req.s
	if s.adm == nil {
		return ending{}
	}
	ticket, rej := s.adm.Acquire(ctx, req.rt.tenant, req.deadline)
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

// statusClientClosedRequest is the span status for requests abandoned
// by their client before any status line went out (nginx's 499
// convention) — not a wire status, only trace/SLO bookkeeping.
const statusClientClosedRequest = 499
