package live

import (
	"net/http"
	"strconv"
	"time"
)

// This file is the watchdog's side of the hop: the handler a specialized
// watchdog runs for its function. It answers its own gateway over the
// instance's private connection, so its http.Error calls are the
// function's replies, not the gateway's refusals (those are conclude's).

// watchdogHandler builds the watchdog-side request handler for fn —
// what specialization installs into a generic or freshly-booted
// watchdog.
func watchdogHandler(fn Function, maxBody int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFunction(w, r, fn, maxBody)
	})
}

// serveFunction is the watchdog request handler. Streaming bodies run
// directly against the socket; []byte handlers go through the pooled
// compat shim, which replaces the old per-request io.ReadAll with a
// recycled whole-body buffer. maxBody > 0 bounds the request body
// (HTTP 413 on overflow) so one request can never balloon the
// watchdog's memory.
//
// A request carrying a traceparent gets the watchdog's §III.A moments
// (2)..(5) back as X-Hotc-Span-* unix-nano headers. On the streaming
// path moments (4) and (5) are unknowable before the response body
// starts, so they return as HTTP trailers on the chunked reply; the
// gateway reads them after draining the body.
func serveFunction(w http.ResponseWriter, r *http.Request, fn Function, maxBody int64) {
	traced := r.Header.Get(TraceparentHeader) != ""
	var watchdogIn int64
	if traced {
		watchdogIn = time.Now().UnixNano() // moment (2)
	}
	body := r.Body
	if maxBody > 0 {
		body = http.MaxBytesReader(w, body, maxBody)
	}
	if fn.Stream != nil {
		// A streaming handler reads the request while writing the
		// response; without full duplex the HTTP/1.1 server aborts
		// body reads at the first response write. Writers that don't
		// support it (tests' fakes) just stay half-duplex.
		http.NewResponseController(w).EnableFullDuplex()
		if traced {
			h := w.Header()
			h.Set("Trailer", SpanFuncDoneHeader+", "+SpanWatchdogOutHeader)
			h.Set(SpanWatchdogInHeader, strconv.FormatInt(watchdogIn, 10))
			h.Set(SpanFuncStartHeader, strconv.FormatInt(time.Now().UnixNano(), 10))
		}
		tw := &trackWriter{w: w}
		err := fn.Stream(body, tw)
		if traced {
			// Moments (4) and (5) coincide for a stream: the handler's
			// last write is the response leaving the watchdog. Written
			// into the declared trailers when the reply is chunked.
			now := strconv.FormatInt(time.Now().UnixNano(), 10)
			w.Header().Set(SpanFuncDoneHeader, now)
			w.Header().Set(SpanWatchdogOutHeader, now)
		}
		if err != nil && tw.n == 0 {
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
	if _, err := buf.ReadFrom(body); err != nil {
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
		funcStart = time.Now().UnixNano() // moment (3)
	}
	out, err := fn.Handler(buf.Bytes())
	if traced {
		h := w.Header()
		h.Set(SpanWatchdogInHeader, strconv.FormatInt(watchdogIn, 10))
		h.Set(SpanFuncStartHeader, strconv.FormatInt(funcStart, 10))
		h.Set(SpanFuncDoneHeader, strconv.FormatInt(time.Now().UnixNano(), 10)) // moment (4)
	}
	if err != nil {
		putBodyBuf(buf)
		if traced {
			w.Header().Set(SpanWatchdogOutHeader, strconv.FormatInt(time.Now().UnixNano(), 10))
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Declare the length so the gateway can forward it instead of
	// chunking. The buffer recycles only after the write: echo-style
	// handlers return slices aliasing it.
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	if traced {
		w.Header().Set(SpanWatchdogOutHeader, strconv.FormatInt(time.Now().UnixNano(), 10)) // moment (5)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	putBodyBuf(buf)
}
