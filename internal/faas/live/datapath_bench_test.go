package live

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardResponseWriter is an http.ResponseWriter that counts and
// drops the body: benchmark iterations must not accumulate megabytes
// in a recorder, or the harness's own allocations would swamp the
// gateway's.
type discardResponseWriter struct {
	h      http.Header
	status int
	n      int64
}

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}

func (d *discardResponseWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK // a write without a status line is a 200, as net/http's
	}
	d.n += int64(len(p))
	return len(p), nil
}

func (d *discardResponseWriter) WriteHeader(code int) { d.status = code }

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dKiB", n>>10)
	}
}

// benchThroughput drives payloads of the given size through the full
// gateway data path on backend (handle → watchdog TCP round trip →
// response copy on a socket, handle → function call in process) against
// an echo function of the given kind, reporting MB/s and B/op.
func benchThroughput(b *testing.B, backend string, size int, fn Function) {
	b.Helper()
	g := New(PoolConfig{Backend: backend})
	if err := g.Register(fn); err != nil {
		b.Fatal(err)
	}
	defer g.Stop()

	payload := bytes.Repeat([]byte("hotc-datapath!!!"), size/16)
	body := bytes.NewReader(payload)

	// Prime one warm instance so the timed region measures steady-state
	// reuse, not the cold boot.
	req := httptest.NewRequest("POST", "/function/"+fn.Name, body)
	w := &discardResponseWriter{}
	g.handle(w, req)
	if w.status != http.StatusOK || w.n != int64(size) {
		b.Fatalf("prime: status %d, %d bytes (want %d)", w.status, w.n, size)
	}

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(payload)
		req := httptest.NewRequest("POST", "/function/"+fn.Name, body)
		w := &discardResponseWriter{}
		g.handle(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
		if w.n != int64(size) {
			b.Fatalf("body %d bytes, want %d", w.n, size)
		}
	}
}

// BenchmarkGatewayThroughput is the data-path suite the streaming PR is
// judged on: echo payloads from 1 KiB to 4 MiB through the live
// gateway, for both handler kinds. bytes_* uses the []byte Handler
// (through the pooled compat shim); stream_* uses a StreamHandler, so
// no stage of the pipeline ever buffers the payload. Each runs on both
// backends, so the socket leg's cost is measured beside the call that
// replaces it.
func BenchmarkGatewayThroughput(b *testing.B) {
	for _, backend := range []string{BackendSocket, BackendInProcess} {
		for _, size := range []int{1 << 10, 64 << 10, 1 << 20, 4 << 20} {
			b.Run(backend+"/bytes_"+sizeLabel(size), func(b *testing.B) {
				benchThroughput(b, backend, size, Function{
					Name:    "f",
					Handler: func(_ context.Context, p []byte) ([]byte, error) { return p, nil },
				})
			})
			b.Run(backend+"/stream_"+sizeLabel(size), func(b *testing.B) {
				benchThroughput(b, backend, size, Function{Name: "f", Stream: streamEcho})
			})
		}
	}
}
