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
		return &socketBackend{g: g, hooks: prefork.Hooks{ServeError: g.watchdogServeError, Panic: panicked,
			Body: kernel.WireBodyBytes(g.reg, "watchdog")}}
	}
	return &inlineBackend{g: g, panicked: panicked}
}

// socketBackend runs each instance's function behind its own loopback
// watchdog, reached over the instance's hop connection: the paper's
// gateway→watchdog leg. Its call is in live.go.
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
// against the client's connection (call): no socket, no hop exchange,
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

// watchdogHandler builds a socket watchdog's request handler for fn —
// what specialization installs into a generic or freshly-booted
// watchdog. It runs fn through run under the request's own context,
// which a socket watchdog never ends. A request carrying a traceparent
// gets its moments back as X-Hotc-Span-* unix-nano fields of the reply's
// header, read on the gateway's clock: a stream's last two are
// unknowable before its reply starts, so it declares them as trailers,
// which the gateway reads after draining the body. The handler answers
// 413 on the watchdog's own body limit and cuts a reply that failed once
// committed, so the gateway reads it cut short, never whole.
func (g *Gateway) watchdogHandler(fn Function) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m *moments
		if len(r.Header[TraceparentHeader]) > 0 {
			h := w.Header()
			if fn.Stream != nil {
				h["Trailer"] = spanTrailer
			}
			m = &moments{wire: h, vals: make([]string, len(spanHeaders))}
		}
		_, err := g.run(r.Context(), w, r, fn, m)
		switch {
		case err == nil:
		case bodyLimit(err) && !hop.Committed(w):
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		default:
			panic(http.ErrAbortHandler) // the server drops the connection
		}
	})
}

// spanTrailer declares a stream's two late moments as trailers; shared
// by every reply, never written.
var spanTrailer = []string{SpanFuncDoneHeader + ", " + SpanWatchdogOutHeader}

// moments are §III.A moments (2)..(5) of one request, in spanHeaders'
// order, as unix nanoseconds on the gateway's clock (0 = not reached).
// run stamps them; in process they are the request's span's own. On a
// socket wire is the reply's header, and each stamp is also set there as
// its X-Hotc-Span-* field, its value in vals: one array for all four.
type moments struct {
	at   [4]int64
	wire http.Header
	vals []string
}

// The moments, as indices into moments.at.
const (
	watchdogIn  = iota // (2) the request reached the watchdog
	funcStart          // (3) the function began
	funcDone           // (4) the function finished
	watchdogOut        // (5) the reply left the watchdog
)

// spanHeaders name the moments on the wire.
var spanHeaders = [...]string{SpanWatchdogInHeader, SpanFuncStartHeader, SpanFuncDoneHeader, SpanWatchdogOutHeader}

// mark stamps moments is of m, one reading of the gateway's clock for
// all; a no-op for an untraced request (m nil).
func (g *Gateway) mark(m *moments, is ...int) {
	if m == nil {
		return
	}
	t := g.clock.Now().UnixNano()
	for _, i := range is {
		m.at[i] = t
		if m.wire != nil {
			m.vals[i] = strconv.FormatInt(t, 10)
			m.wire[spanHeaders[i]] = m.vals[i : i+1 : i+1]
		}
	}
}

// run is the function step, the one on either backend: fn runs under
// ctx against r's body and w, and a traced request's moments go into m.
// A streaming function reads and writes full duplex; a buffered one gets
// its body through the pooled compat shim, a recycled whole-body buffer,
// and its reply declares its Content-Length. While nothing of the reply
// is committed, a function's error is answered 500 (413 for a stream's
// body-limit error flattened to text), and a body that failed to read
// 400. Three ways out are left to the caller, unanswered: the hop
// server's body limit (bodyLimit), ctx's end, and a stream that failed
// after its first byte. status is the reply's, 0 when there is none.
func (g *Gateway) run(ctx context.Context, w http.ResponseWriter, r *http.Request, fn Function, m *moments) (status int, err error) {
	g.mark(m, watchdogIn)
	if fn.Stream != nil {
		g.mark(m, funcStart)
		err = fn.Stream(ctx, r.Body, w)
		// Moments (4) and (5) coincide for a stream: the function's last
		// write is the reply leaving the watchdog.
		g.mark(m, funcDone, watchdogOut)
		if err == nil || hop.Committed(w) || bodyLimit(err) || ctx.Err() != nil {
			return http.StatusOK, err
		}
		status = http.StatusInternalServerError
		if isMaxBytesErr(err) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return status, nil
	}
	buf := getBodyBuf()
	// The buffer recycles only after the write: echo-style handlers
	// return slices aliasing it.
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		if bodyLimit(err) || ctx.Err() != nil {
			return 0, err
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest, nil
	}
	g.mark(m, funcStart)
	out, err := fn.Handler(ctx, buf.Bytes())
	g.mark(m, funcDone)
	switch {
	case ctx.Err() != nil:
		// The deadline passed, or the client left, while the function
		// ran: nothing goes out but what the caller answers.
		return 0, ctx.Err()
	case err != nil:
		g.mark(m, watchdogOut)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError, nil
	}
	// Declare the length, so the gateway can forward it instead of
	// chunking.
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	g.mark(m, watchdogOut)
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	return http.StatusOK, nil
}

// errPanicked is the in-process backend's error for a function that
// panicked.
var errPanicked = errors.New("live: function panicked")
