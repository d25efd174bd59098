package live

import (
	"net/http"
	"strconv"

	"hotc/internal/hop"
)

// This file is the watchdog's side of the hop: the handler a specialized
// watchdog runs for its function. It answers its own gateway over the
// instance's private connection, so its http.Error calls are the
// function's replies, not the gateway's refusals (those are conclude's).

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
		err := fn.Stream(r.Body, w)
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
	out, err := fn.Handler(buf.Bytes())
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
