package live

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"

	"hotc/internal/hop"
)

// This file is the byte-moving half of the live data path: pooled
// buffers and streaming copies shared by the gateway proxy and the
// watchdog handler. The paper's six-timestamp breakdown (§III.A)
// leaves data transfer (4→5) as the residual request cost once reuse
// removes the boot stages, so at steady state a request through this
// path allocates no body-sized memory at all — every chunk moves
// through a recycled buffer.

// maxPooledBody caps how large a compat-shim body buffer may grow and
// still return to the pool: buffers up to the bench suite's largest
// payload recycle (steady-state zero alloc); a pathological request
// beyond that must not pin its buffer in the pool forever.
const maxPooledBody = 8 << 20

// drainLimit bounds how many trailing response bytes the gateway reads
// to keep an instance's watchdog connection; past that, closing and
// re-dialing is cheaper than draining.
const drainLimit = 256 << 10

// bodyBufPool recycles the compat shim's whole-body buffers.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBodyBuf hands out a reset whole-body buffer for the compat shim.
func getBodyBuf() *bytes.Buffer {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// putBodyBuf recycles a shim buffer unless a huge request grew it past
// the pooling cap.
func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufPool.Put(buf)
	}
}

// drainClose consumes up to drainLimit of the remaining body so the
// connection underneath is left at a message boundary, reusable instead
// of poisoned by unread bytes, then closes the body. On the success
// path the body already sits at EOF and this is one cheap read.
func drainClose(rc io.ReadCloser) {
	bp := hop.GetBuf()
	buf := *bp
	var total int64
	for total < drainLimit {
		n, err := rc.Read(buf)
		total += int64(n)
		if err != nil {
			break
		}
	}
	hop.PutBuf(bp)
	rc.Close()
}

// bodyLimit reports whether err is a hop server's body limit
// (*http.MaxBytesError): a socket watchdog's own, or the front door's,
// which a function in process reads straight off the client's body.
func bodyLimit(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// isMaxBytesErr reports whether err (possibly wrapped, or flattened to
// text by a handler) originates from a body limit — the hop codec's, at
// the gateway's front door or a watchdog — the signal to answer 413
// instead of blaming the backend.
func isMaxBytesErr(err error) bool {
	return bodyLimit(err) || err != nil && strings.Contains(err.Error(), "request body too large")
}
