package live

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hotc/internal/hop"
	"hotc/internal/kernel"
	"hotc/internal/prefork"
)

// This file is the watchdog's side: the backend a function runs on and
// what runs it. A socket watchdog answers its own gateway over the
// instance's private connection; an in-process one answers the client
// on the front door's goroutine. Either way its http.Error calls are the
// function's replies, not the gateway's refusals (those are conclude's).

// backend is where functions run, resolved once by New from
// PoolConfig.Backend: the one seam between the gateway and its
// instances. Boots, leases, the generic pool and release hold the same
// *prefork.Watchdog and *instance on either backend; three steps differ:
// start and specialize here, and each backend's call — the request's
// exchange with an instance it owns, released before call returns so
// no instance is held across the accounting — which exchange dispatches.
type backend interface {
	// start starts one generic watchdog: the one place a watchdog comes
	// to exist, for a generic (bootGeneric) and a full cold boot (boot)
	// alike.
	start() (*prefork.Watchdog, error)
	// specialize readies wd to run fn, as a boot's last step, and returns
	// the gateway's connection to it: conn, a lender's, when the boot
	// rented one.
	specialize(ctx context.Context, wd *prefork.Watchdog, fn Function, conn *hop.Conn) (*hop.Conn, error)
}

// exchange runs req's exchange with inst on g's backend. It dispatches
// by type: a request passed through an interface method would escape to
// the heap, an allocation on every request.
func (g *Gateway) exchange(ctx context.Context, req *request, inst *instance, mode bootMode) ending {
	switch b := g.backend.(type) {
	case *inlineBackend:
		return b.call(ctx, req, inst, mode)
	default:
		return b.(*socketBackend).call(ctx, req, inst, mode)
	}
}

// newBackend resolves name, which Validate accepts, to g's backend.
func (g *Gateway) newBackend(name string) backend {
	panicked := kernel.WirePanics(g.reg, "watchdog")
	if name == BackendSocket {
		return &socketBackend{g: g, hooks: prefork.Hooks{ServeError: g.watchdogServeError, Panic: panicked}}
	}
	return &inlineBackend{g: g, panicked: panicked}
}

// socketBackend runs each instance's function behind its own loopback
// watchdog, reached over the instance's hop connection: the paper's
// gateway→watchdog leg. Its call is proxy (live.go).
type socketBackend struct {
	g     *Gateway
	hooks prefork.Hooks // what the gateway hears of its watchdogs
}

func (b *socketBackend) start() (*prefork.Watchdog, error) { return prefork.Start(&b.hooks) }

// specialize installs fn's handler and dials the instance's connection —
// once per watchdog. A rented boot keeps the lender's: same watchdog,
// nothing to dial.
func (b *socketBackend) specialize(ctx context.Context, wd *prefork.Watchdog, fn Function, conn *hop.Conn) (*hop.Conn, error) {
	wd.Specialize(b.g.watchdogHandler(fn))
	wd.LimitBodies(b.g.cfg.MaxBodyBytes)
	if conn != nil {
		return conn, nil
	}
	conn, err := b.g.dialHop(ctx, wd.Addr())
	if err != nil {
		return nil, fmt.Errorf("live: dial watchdog: %w", err)
	}
	return conn, nil
}

// inlineBackend runs a function on the front door's own goroutine,
// against the client's connection (serve): no socket, no hop exchange,
// no relay. Its watchdogs are prefork.Inline's, its instances hold no
// connection, and the instance's fn is what runs.
type inlineBackend struct {
	g        *Gateway
	panicked func() // hotc_wire_panics_total{role="watchdog"}
}

func (b *inlineBackend) start() (*prefork.Watchdog, error) { return prefork.Inline(), nil }

func (b *inlineBackend) specialize(context.Context, *prefork.Watchdog, Function, *hop.Conn) (*hop.Conn, error) {
	return nil, nil
}

// watchdogHandler builds the watchdog-side request handler for fn —
// what specialization installs into a generic or freshly-booted
// watchdog.
func (g *Gateway) watchdogHandler(fn Function) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.serveFunction(w, r, fn)
	})
}

// spanTrailer declares the stream path's two late moments as trailers;
// shared by every reply, never written.
var spanTrailer = []string{SpanFuncDoneHeader + ", " + SpanWatchdogOutHeader}

// serveFunction is the watchdog request handler, run by a hop.Server, which
// bounds the request body (a read past the watchdog's limit fails with
// *http.MaxBytesError: HTTP 413 here), reads whatever the function left
// of it, and lets a streaming function read and write full duplex.
// Streaming bodies run directly against the socket; []byte handlers go
// through the pooled compat shim, which replaces the old per-request
// io.ReadAll with a recycled whole-body buffer.
//
// A request carrying a traceparent gets the watchdog's §III.A moments
// (2)..(5) back as X-Hotc-Span-* unix-nano headers, read on the gateway's
// clock. On the streaming
// path moments (4) and (5) are unknowable before the response body
// starts, so they return as HTTP trailers on the chunked reply; the
// gateway reads them after draining the body.
func (g *Gateway) serveFunction(w http.ResponseWriter, r *http.Request, fn Function) {
	traced := len(r.Header[TraceparentHeader]) > 0
	var watchdogIn int64
	if traced {
		watchdogIn = g.clock.Now().UnixNano() // moment (2)
	}
	var spans []string // the span headers' values, one array for all four
	if traced {
		spans = make([]string, 4)
	}
	if fn.Stream != nil {
		if traced {
			h := w.Header()
			h["Trailer"] = spanTrailer
			stamp(h, spans, 0, SpanWatchdogInHeader, watchdogIn)
			stamp(h, spans, 1, SpanFuncStartHeader, g.clock.Now().UnixNano())
		}
		err := fn.Stream(r.Context(), r.Body, w)
		if traced {
			// Moments (4) and (5) coincide for a stream: the handler's
			// last write is the response leaving the watchdog. Written
			// into the declared trailers when the reply is chunked.
			now := g.clock.Now().UnixNano()
			stamp(w.Header(), spans, 2, SpanFuncDoneHeader, now)
			stamp(w.Header(), spans, 3, SpanWatchdogOutHeader, now)
		}
		if err != nil && !hop.Committed(w) {
			// Nothing committed yet: a real status line is still
			// possible. After first byte, all we can do is truncate.
			if isMaxBytesErr(err) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
		return
	}
	buf := getBodyBuf()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBodyBuf(buf)
		if isMaxBytesErr(err) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	var funcStart int64
	if traced {
		funcStart = g.clock.Now().UnixNano() // moment (3)
	}
	out, err := fn.Handler(r.Context(), buf.Bytes())
	if traced {
		h := w.Header()
		stamp(h, spans, 0, SpanWatchdogInHeader, watchdogIn)
		stamp(h, spans, 1, SpanFuncStartHeader, funcStart)
		stamp(h, spans, 2, SpanFuncDoneHeader, g.clock.Now().UnixNano()) // moment (4)
	}
	if err != nil {
		putBodyBuf(buf)
		if traced {
			stamp(w.Header(), spans, 3, SpanWatchdogOutHeader, g.clock.Now().UnixNano())
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Declare the length so the gateway can forward it instead of
	// chunking. The buffer recycles only after the write: echo-style
	// handlers return slices aliasing it.
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	if traced {
		stamp(w.Header(), spans, 3, SpanWatchdogOutHeader, g.clock.Now().UnixNano()) // moment (5)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	putBodyBuf(buf)
}

// stamp sets span header k to the unix-nano time t, its value in
// spans[i]: the reply's span headers share one value array.
func stamp(h http.Header, spans []string, i int, k string, t int64) {
	spans[i] = strconv.FormatInt(t, 10)
	h[k] = spans[i : i+1 : i+1]
}

// errPanicked is serve's error for a function that panicked.
var errPanicked = errors.New("live: function panicked")

// serve is the in-process watchdog: serveFunction's work, with fn run
// on the front door's own goroutine against the client's w and r, whose
// body the front door already bounds, under the request's ctx, and the
// §III.A moments (2)..(5) stamped straight into the request's span. It
// returns the reply's status and the error call books: the front door's
// body limit, ctx's error when ctx ended before a buffered reply could
// go out, a stream's failure after its first byte, or errPanicked — the
// function's panic, recovered here and counted as the in-process
// watchdog's. A function's own error before any byte went out is
// answered here, as a socket watchdog answers it.
func (b *inlineBackend) serve(ctx context.Context, w http.ResponseWriter, r *http.Request, fn Function, rt *reqTrace) (status int, err error) {
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				b.panicked()
			}
			status, err = http.StatusOK, errPanicked
		}
	}()
	g := b.g
	traced := rt.active
	if traced {
		rt.watchdogIn = g.traceNow() // moment (2)
	}
	if fn.Stream != nil {
		if traced {
			rt.funcStart = g.traceNow() // moment (3)
		}
		err = fn.Stream(ctx, r.Body, w)
		if traced {
			// Moments (4) and (5) coincide for a stream, as on a socket.
			rt.funcDone = g.traceNow()
			rt.watchdogOut = rt.funcDone
		}
		if err == nil || hop.Committed(w) || frontLimit(err) || ctx.Err() != nil {
			return http.StatusOK, err
		}
		// Nothing committed yet: a real status line is still possible.
		status = http.StatusInternalServerError
		if isMaxBytesErr(err) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return status, nil
	}
	buf := getBodyBuf()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBodyBuf(buf)
		if frontLimit(err) || ctx.Err() != nil {
			return 0, err
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest, nil
	}
	if traced {
		rt.funcStart = g.traceNow() // moment (3)
	}
	out, err := fn.Handler(ctx, buf.Bytes())
	if traced {
		rt.funcDone = g.traceNow() // moment (4)
	}
	switch {
	case ctx.Err() != nil:
		// The deadline passed, or the client left, while the function
		// ran: nothing goes out but what call answers.
		putBodyBuf(buf)
		return 0, ctx.Err()
	case err != nil:
		putBodyBuf(buf)
		if traced {
			rt.watchdogOut = g.traceNow()
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError, nil
	}
	// Declare the length, as a socket watchdog does. The buffer recycles
	// only after the write: echo-style handlers return slices aliasing it.
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	if traced {
		rt.watchdogOut = g.traceNow() // moment (5)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	putBodyBuf(buf)
	return http.StatusOK, nil
}

// traceNow is the gateway's clock as a span stamp: nanoseconds from the
// tracer's epoch. Only a traced request reads it.
func (g *Gateway) traceNow() int64 { return g.clock.Now().UnixNano() - g.trace.epochNano }
